// Package backend implements the persist-ordering hardware behind each
// hwdesign.Design as a pluggable PersistBackend: the CLWB datapath, the
// ordering-primitive semantics (SFENCE, PersistBarrier/NewStrand/
// JoinStrand, OFENCE/DFENCE), the drain/quiesce logic, the cache
// write-back/snoop gate, and the design's logging-order plan. The core
// (internal/cpu), the cache hierarchy and the machine assembly call
// through the Backend interface and carry no per-design branches, so
// adding a comparison baseline is one file in this package (see eadr.go
// for the template).
package backend

import (
	"errors"
	"fmt"

	"strandweaver/internal/cache"
	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
	"strandweaver/internal/strand"
)

// StallReason classifies the cycles a backend blocks the front-end for,
// mapping onto the two persist-stall counters of cpu.Stats (together
// they are the paper's Figure 8 metric).
type StallReason uint8

const (
	// StallFence marks waiting on an ordering primitive's completion
	// (SFENCE/JoinStrand/DFENCE drain).
	StallFence StallReason = iota
	// StallQueueFull marks a structural hazard: a full store queue,
	// persist queue or strand/persist buffer.
	StallQueueFull
)

// StepStatus is the outcome of a QueuedOp's head step.
type StepStatus uint8

const (
	// OpDone completed synchronously; the queue pops the entry.
	OpDone StepStatus = iota
	// OpBlocked made no progress; the queue retries on a later pump.
	OpBlocked
	// OpAsync took ownership of the head; the op invokes the pop
	// callback passed to Step when it releases the queue.
	OpAsync
)

// QueuedOp is a backend-defined operation travelling through the store
// queue in program order (the Intel/NoPersistQueue CLWB and fence
// routing). Step runs when the op reaches the queue head.
type QueuedOp interface {
	Step(pop func()) StepStatus
}

// Queue is the slice of the core's store queue that backends drive:
// occupancy checks for structural stalls, in-order enqueue of backend
// ops, and the pending-store lookups of strand.StoreTracker.
type Queue interface {
	Full() bool
	Empty() bool
	// Enqueue appends a backend op behind all prior entries; it drains
	// only at the head (exactly the head-of-line blocking the persist
	// queue exists to avoid).
	Enqueue(seq uint64, op QueuedOp)
	strand.StoreTracker
}

// Host is the per-core surface a backend operates through; *cpu.Core
// implements it. Methods may suspend the calling workload coroutine.
type Host interface {
	// Queue returns the core's store queue.
	Queue() Queue
	// NextSeq allocates the next core-wide program-order sequence
	// number (0 is reserved as "none").
	NextSeq() uint64
	// StallUntil parks the front-end until cond holds, charging the
	// elapsed cycles to the stall counter selected by why.
	StallUntil(cond func() bool, why StallReason)
	// Kick schedules a pump of the core's queues.
	Kick()
}

// ErrPrimitiveUnavailable reports an ordering primitive issued on a
// design that does not implement it. Backends return it from Barrier;
// litmus and the harness surface it as an error (there is no panicking
// path from the public API).
type ErrPrimitiveUnavailable struct {
	Design hwdesign.Design
	Op     isa.OpKind
}

func (e *ErrPrimitiveUnavailable) Error() string {
	return fmt.Sprintf("backend: %s not available on design %s", e.Op, e.Design)
}

// OrderingPlan names the primitive a logging runtime must issue for
// each ordering requirement of the paper's Figure 5 on this design.
// isa.OpNone marks requirements the design discharges for free (see
// internal/undolog for the requirement semantics).
type OrderingPlan struct {
	// BeginPair starts an independent log/update pair.
	BeginPair isa.OpKind
	// LogToUpdate orders a log persist before its in-place update.
	LogToUpdate isa.OpKind
	// CommitOrder orders the commit sequence's phases.
	CommitOrder isa.OpKind
	// RegionEnd closes a failure-atomic region before locks release.
	RegionEnd isa.OpKind
	// Durable makes all prior persists durable before proceeding.
	Durable isa.OpKind
}

// StoreGate is the condition a store issued now must satisfy before it
// drains from the store queue: Ready(Seq) must hold. Ready is built once
// per backend and Seq names what the store waits for (StrandWeaver: the
// persist barrier it follows), so handing a gate to every store
// allocates nothing, and the gate keeps answering for its own barrier
// after the hardware recycles that barrier's entry. The zero value is
// no gate.
type StoreGate struct {
	Ready func(seq uint64) bool
	Seq   uint64
}

// Stat is one named backend counter.
type Stat struct {
	Name  string
	Value uint64
}

// Backend is one hardware design's persist-ordering machinery for one
// core. All methods run on the simulation engine; CLWB and Barrier run
// on the workload coroutine and may suspend it.
type Backend interface {
	// Gate returns the cache-side persist gate the hierarchy must
	// consult for dirty write-backs and snoop transfers, or nil when
	// the design does not gate them.
	Gate() cache.PersistGate
	// CLWB routes a write-back request for the given cache line.
	CLWB(h Host, line mem.Addr)
	// Barrier performs the ordering primitive k, or returns
	// *ErrPrimitiveUnavailable without side effects.
	Barrier(h Host, k isa.OpKind) error
	// StoreGate returns the condition a store issued now must satisfy
	// before it may drain from the store queue (the zero StoreGate =
	// drain freely).
	StoreGate() StoreGate
	// OnStoreVisible observes a store's visibility point (the in-order
	// functional write at store-queue drain, or an RMW's update).
	OnStoreVisible(addr mem.Addr, value uint64, size uint8)
	// Pump advances backend machinery; called from the core's pump.
	Pump()
	// Drained reports whether all backend persist machinery is idle.
	Drained() bool
	// Stats returns the backend's counters in a stable order.
	Stats() []Stat
}

// Deps bundles the machine components a backend may wire at
// construction time.
type Deps struct {
	Eng *sim.Engine
	Cfg config.Config
	// L1 is the owning core's L1, the flush datapath for strand/persist
	// buffers and direct CLWBs.
	L1 *cache.L1
	// PM is the persistence boundary; a design that persists at
	// visibility writes through it (Topology.PersistVisible).
	PM *pmem.Topology
	// Tracker exposes the core's store queue to persist hardware that
	// must order against undrained stores.
	Tracker strand.StoreTracker
	// Kick schedules a pump of the owning core's queues.
	Kick func()
}

type ctor func(Deps) Backend

type registration struct {
	mk   ctor
	plan OrderingPlan
}

var registry = map[hwdesign.Design]registration{}

// register binds a design to its constructor and its static ordering
// plan; each design file calls it from init. The plan is registered
// alongside the constructor so that recipe analysis (internal/
// persistcheck and the lint CLI) can ask "what primitives would this
// design's logging recipe issue?" without building a machine.
func register(d hwdesign.Design, plan OrderingPlan, mk ctor) {
	if _, dup := registry[d]; dup {
		panic("backend: duplicate registration for design " + d.String())
	}
	registry[d] = registration{mk: mk, plan: plan}
}

// ErrUnknownDesign reports a design with no registered backend
// implementation. New and PlanFor wrap it with the design name; match
// with errors.Is.
var ErrUnknownDesign = errors.New("backend: no implementation registered for design")

// New builds the backend implementing design d.
func New(d hwdesign.Design, deps Deps) (Backend, error) {
	r, ok := registry[d]
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrUnknownDesign, d)
	}
	return r.mk(deps), nil
}

// PlanFor returns design d's logging-order plan without constructing a
// backend (and therefore without an engine, caches or memory): the one
// source of the plan, for static analysis and for the live cores
// alike.
func PlanFor(d hwdesign.Design) (OrderingPlan, error) {
	r, ok := registry[d]
	if !ok {
		return OrderingPlan{}, fmt.Errorf("%w %s", ErrUnknownDesign, d)
	}
	return r.plan, nil
}

// unavailable is the shared Barrier tail for unsupported primitives.
func unavailable(d hwdesign.Design, k isa.OpKind) error {
	return &ErrPrimitiveUnavailable{Design: d, Op: k}
}
