// Package cpu models one simulated core per hardware thread: the
// front-end that issues memory and persist operations, the TSO store
// queue, and the persist-ordering hardware behind them. The persist
// hardware itself (Intel x86 SFENCE, HOPS persist buffer, StrandWeaver
// persist queue + strand buffer unit, the no-persist-queue ablation,
// the non-atomic and eADR bounds) lives behind the backend.Backend
// interface; the core only routes through it.
//
// Timing philosophy: the front-end issues one operation per cycle until
// a structural hazard (full store/persist queue) or an ordering
// primitive blocks it; every cycle the front-end spends blocked for a
// persist-ordering reason is counted as a persist stall (the metric in
// the paper's Figure 8).
package cpu

import (
	"fmt"
	"math/rand"

	"strandweaver/internal/backend"
	"strandweaver/internal/cache"
	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
	"strandweaver/internal/strand"
	"strandweaver/internal/trace"
)

// Stats aggregates one core's activity counters.
type Stats struct {
	// Loads, Stores, CLWBs, RMWs count issued operations.
	Loads, Stores, CLWBs, RMWs uint64
	// Fences counts ordering primitives issued (any kind).
	Fences uint64
	// StallFenceCycles counts front-end cycles blocked waiting on an
	// ordering primitive (JoinStrand completion, DFENCE drain).
	StallFenceCycles uint64
	// StallQueueFullCycles counts front-end cycles blocked on a full
	// store queue, persist queue or persist/strand buffer.
	StallQueueFullCycles uint64
	// LockSpinCycles counts cycles burnt spinning on locks (contention,
	// not persist ordering).
	LockSpinCycles uint64
	// ComputeCycles counts explicitly modelled non-memory work.
	ComputeCycles uint64
	// BusyUntil is the cycle at which the core last completed useful
	// front-end work.
	BusyUntil sim.Cycle
}

// PersistStallCycles returns the cycles the front-end was blocked by
// persist-ordering hardware (Figure 8's metric).
func (s Stats) PersistStallCycles() uint64 {
	return s.StallFenceCycles + s.StallQueueFullCycles
}

// Add folds other into s: counters sum, BusyUntil takes the maximum.
// Every aggregation of core statistics (machine.TotalStats and friends)
// goes through this method, so a new Stats field only needs its merge
// rule defined here and cannot be silently dropped from totals.
func (s *Stats) Add(other Stats) {
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.CLWBs += other.CLWBs
	s.RMWs += other.RMWs
	s.Fences += other.Fences
	s.StallFenceCycles += other.StallFenceCycles
	s.StallQueueFullCycles += other.StallQueueFullCycles
	s.LockSpinCycles += other.LockSpinCycles
	s.ComputeCycles += other.ComputeCycles
	if other.BusyUntil > s.BusyUntil {
		s.BusyUntil = other.BusyUntil
	}
}

// Core is one simulated core.
type Core struct {
	id      int
	eng     *sim.Engine
	cfg     config.Config
	machine *mem.Machine
	l1      *cache.L1
	pm      *pmem.Topology

	sq *storeQueue
	be backend.Backend

	// seq is the core-wide program-order sequence counter; 0 is reserved
	// as "none".
	seq uint64

	co *sim.Coroutine

	// tracer, when set, records every front-end operation with its
	// issue and completion cycles (nil = disabled, zero cost).
	tracer *trace.Recorder

	// wake is broadcast whenever core state changes that could unblock
	// the front-end.
	wake *sim.Waiter
	// kickQueued coalesces pump scheduling; kickFn is the scheduled
	// callback, built once (kick is far too hot to allocate a closure
	// per call).
	kickQueued bool
	kickFn     func()
	// sqNotFull, sqEmpty and drainedFn are reusable stall conditions,
	// built once.
	sqNotFull, sqEmpty, drainedFn func() bool

	// opDone plus the cached completion thunks below serve the blocking
	// memory ops (access, CAS64, AtomicAdd64). The coroutine blocks
	// until its one in-flight operation completes, so a single pending
	// slot per core suffices and no memory op allocates a closure.
	opDone       bool
	accessDoneFn func()
	casAddr      mem.Addr
	casOld       uint64
	casNew       uint64
	casOK        bool
	casFn        func()
	addAddr      mem.Addr
	addDelta     uint64
	addResult    uint64
	addFn        func()

	// rng drives lock backoff jitter.
	rng *rand.Rand

	stats Stats
}

// NewCore wires a core for the given design. The caller registers the
// returned core's persist gate on the cache hierarchy when the design
// has one. It fails only when no backend implements the design.
func NewCore(id int, eng *sim.Engine, cfg config.Config, design hwdesign.Design, machine *mem.Machine, l1 *cache.L1, pm *pmem.Topology) (*Core, error) {
	c := &Core{
		id:      id,
		eng:     eng,
		cfg:     cfg,
		machine: machine,
		l1:      l1,
		pm:      pm,
		wake:    sim.NewWaiter(eng),
		rng:     rand.New(rand.NewSource(int64(id)*7919 + 12345)),
	}
	c.sq = newStoreQueue(c)
	c.kickFn = func() {
		c.kickQueued = false
		c.pump()
	}
	c.sqNotFull = func() bool { return !c.sq.Full() }
	c.sqEmpty = c.sq.Empty
	c.drainedFn = c.Drained
	c.accessDoneFn = func() {
		c.opDone = true
		c.wake.Broadcast()
	}
	c.casFn = func() {
		cur := c.machine.Volatile.Read64(c.casAddr)
		if cur == c.casOld {
			c.machine.Volatile.Write64(c.casAddr, c.casNew)
			c.be.OnStoreVisible(c.casAddr, c.casNew, 8)
			c.casOK = true
		}
		c.opDone = true
		c.wake.Broadcast()
	}
	c.addFn = func() {
		c.addResult = c.machine.Volatile.Read64(c.addAddr) + c.addDelta
		c.machine.Volatile.Write64(c.addAddr, c.addResult)
		c.be.OnStoreVisible(c.addAddr, c.addResult, 8)
		c.opDone = true
		c.wake.Broadcast()
	}
	be, err := backend.New(design, backend.Deps{
		Eng:     eng,
		Cfg:     cfg,
		L1:      l1,
		Mem:     machine,
		Tracker: c.sq,
		Kick:    c.kick,
	})
	if err != nil {
		return nil, err
	}
	c.be = be
	return c, nil
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Design returns the core's hardware design.
func (c *Core) Design() hwdesign.Design { return c.be.Design() }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// OrderingPlan returns the backend's logging-order plan (which
// primitive discharges each Figure 5 requirement on this design).
func (c *Core) OrderingPlan() backend.OrderingPlan { return c.be.Plan() }

// PersistGate returns the backend's cache persist gate (the strand
// buffer unit on designs that have one), or nil.
func (c *Core) PersistGate() cache.PersistGate { return c.be.Gate() }

// BufferUnit exposes the strand buffer unit (nil for designs without
// one); used by tests and the Figure 4 walkthrough.
func (c *Core) BufferUnit() *strand.BufferUnit {
	if p, ok := c.be.(interface{ BufferUnit() *strand.BufferUnit }); ok {
		return p.BufferUnit()
	}
	return nil
}

// PersistQueue exposes the persist queue (nil except StrandWeaver).
func (c *Core) PersistQueue() *strand.PersistQueue {
	if p, ok := c.be.(interface{ PersistQueue() *strand.PersistQueue }); ok {
		return p.PersistQueue()
	}
	return nil
}

// Attach binds the workload coroutine to this core. Every Core memory
// API must be called from that coroutine.
func (c *Core) Attach(co *sim.Coroutine) { c.co = co }

// SetTracer enables per-operation trace recording on this core.
func (c *Core) SetTracer(r *trace.Recorder) { c.tracer = r }

// traceOp records one completed front-end operation when tracing is on.
func (c *Core) traceOp(kind isa.OpKind, addr mem.Addr, value uint64, start sim.Cycle) {
	if c.tracer != nil {
		c.tracer.Record(c.id, kind, addr, value, start, c.eng.Now())
	}
}

// kick schedules a pump of the core's queues; repeated calls before the
// pump runs are coalesced.
func (c *Core) kick() {
	if c.kickQueued {
		return
	}
	c.kickQueued = true
	c.eng.Schedule(0, c.kickFn)
}

// pump advances the store queue and the backend's persist machinery and
// wakes any blocked front-end.
func (c *Core) pump() {
	c.sq.pump()
	c.be.Pump()
	c.wake.Broadcast()
}

// Drained reports whether all of the core's persist machinery is idle:
// the store queue is empty and the backend (persist queue, strand
// buffers, in-flight flushes) reports drained.
func (c *Core) Drained() bool {
	return c.sq.Empty() && c.be.Drained()
}

func (c *Core) String() string {
	return fmt.Sprintf("core%d[%s]", c.id, c.be.Design())
}

// stallUntil parks the front-end until cond holds, charging the elapsed
// cycles to the given stall counter.
func (c *Core) stallUntil(cond func() bool, counter *uint64) {
	if cond() {
		return
	}
	start := c.eng.Now()
	for !cond() {
		c.wake.Park(c.co)
	}
	*counter += uint64(c.eng.Now() - start)
}

// --- backend.Host implementation ---

// Queue implements backend.Host.
func (c *Core) Queue() backend.Queue { return c.sq }

// NextSeq implements backend.Host: it allocates the next program-order
// sequence number.
func (c *Core) NextSeq() uint64 {
	c.seq++
	return c.seq
}

// StallUntil implements backend.Host, mapping the stall reason onto the
// matching Stats counter.
func (c *Core) StallUntil(cond func() bool, why backend.StallReason) {
	switch why {
	case backend.StallFence:
		c.stallUntil(cond, &c.stats.StallFenceCycles)
	default:
		c.stallUntil(cond, &c.stats.StallQueueFullCycles)
	}
}

// Kick implements backend.Host.
func (c *Core) Kick() { c.kick() }
