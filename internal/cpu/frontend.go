package cpu

import (
	"fmt"

	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// The front-end API. Every method must be called from the coroutine
// attached with Attach; methods may suspend the coroutine to model
// latency and stalls.
//
// Ordering primitives return an error (a *backend.ErrPrimitiveUnavailable)
// when the core's design does not implement them, with no side effects;
// all other outcomes are nil.

// issueCycle charges one front-end issue slot.
func (c *Core) issueCycle() {
	c.co.WaitCycles(1)
	c.stats.BusyUntil = c.eng.Now()
}

// Load64 returns the 8-byte value at addr, modelling store-to-load
// forwarding and the cache access path. Loads never wait on persist
// state (TSO allows loads to pass stores to other addresses).
func (c *Core) Load64(addr mem.Addr) uint64 { return c.load(addr, 8) }

// Load32 returns the 4-byte value at addr.
func (c *Core) Load32(addr mem.Addr) uint32 { return uint32(c.load(addr, 4)) }

func (c *Core) load(addr mem.Addr, size uint8) uint64 {
	c.stats.Loads++
	start := c.eng.Now()
	v, ok := c.sq.forward(addr, size)
	switch {
	case ok:
		c.issueCycle()
	case size == 8:
		c.access(mem.LineAddr(addr), c.l1.Load)
		v = c.machine.Volatile.Read64(addr)
	default:
		c.access(mem.LineAddr(addr), c.l1.Load)
		v = uint64(c.machine.Volatile.Read32(addr))
	}
	c.traceOp(isa.OpLoad, addr, v, start)
	return v
}

// access performs a blocking cache access through fn and charges its
// latency to the calling coroutine. The completion thunk is cached on
// the core: the coroutine blocks until the access completes, so one
// pending slot suffices and the hot hit path allocates nothing.
func (c *Core) access(line mem.Addr, fn func(mem.Addr, func())) {
	c.opDone = false
	fn(line, c.accessDoneFn)
	for !c.opDone {
		c.wake.Park(c.co)
	}
	c.stats.BusyUntil = c.eng.Now()
}

// Store64 issues an 8-byte store. The store enters the store queue
// (stalling if full) and drains to the L1 in order; visibility happens
// at drain.
func (c *Core) Store64(addr mem.Addr, v uint64) { c.store(addr, v, 8) }

// Store32 issues a 4-byte store.
func (c *Core) Store32(addr mem.Addr, v uint32) { c.store(addr, uint64(v), 4) }

func (c *Core) store(addr mem.Addr, v uint64, size uint8) {
	c.stats.Stores++
	start := c.eng.Now()
	c.stallUntil(c.sqNotFull, &c.stats.StallQueueFullCycles)
	c.sq.pushStore(addr, v, size, c.NextSeq(), c.be.StoreGate())
	c.issueCycle()
	c.traceOp(isa.OpStore, addr, v, start)
}

// CLWB requests a write-back of the cache line containing addr to the
// point of persistence; the backend owns the routing (persist queue,
// persist buffer, store queue, or nothing at all). CLWB is valid on
// every design.
func (c *Core) CLWB(addr mem.Addr) {
	c.stats.CLWBs++
	start := c.eng.Now()
	line := mem.LineAddr(addr)
	c.be.CLWB(c, line)
	c.issueCycle()
	c.traceOp(isa.OpCLWB, line, 0, start)
}

// barrier issues the persist-ordering primitive k through the backend.
func (c *Core) barrier(k isa.OpKind) error {
	start := c.eng.Now()
	if err := c.be.Barrier(c, k); err != nil {
		return err
	}
	c.stats.Fences++
	c.issueCycle()
	c.traceOp(k, 0, 0, start)
	return nil
}

// SFence issues Intel's persist barrier. Per the paper (Section II-B),
// SFENCE "stalls issue for subsequent updates until prior CLWBs
// complete": prior stores must be visible and prior CLWBs acknowledged
// by the PM controller before the core proceeds — the long-latency
// stall StrandWeaver removes.
func (c *Core) SFence() error { return c.barrier(isa.OpSFence) }

// PersistBarrier orders persists within the current strand.
func (c *Core) PersistBarrier() error { return c.barrier(isa.OpPersistBarrier) }

// NewStrand begins a new strand.
func (c *Core) NewStrand() error { return c.barrier(isa.OpNewStrand) }

// JoinStrand merges prior strands: the front-end stalls until all prior
// persists and stores complete.
func (c *Core) JoinStrand() error { return c.barrier(isa.OpJoinStrand) }

// OFence issues the HOPS lightweight epoch barrier: ordering is
// delegated to the persist buffer; the core stalls only if the buffer
// is full.
func (c *Core) OFence() error { return c.barrier(isa.OpOFence) }

// DFence issues the HOPS durability barrier: the core stalls until the
// persist buffer fully drains and prior stores have left the store
// queue.
func (c *Core) DFence() error { return c.barrier(isa.OpDFence) }

// Issue issues the ordering primitive k. isa.OpNone is a no-op (the
// value ordering plans use for requirements a design discharges for
// free); any non-ordering kind is an error.
func (c *Core) Issue(k isa.OpKind) error {
	if k == isa.OpNone {
		return nil
	}
	if !k.IsPersistOrderOp() {
		return fmt.Errorf("cpu: %s is not an ordering primitive", k)
	}
	return c.barrier(k)
}

// DrainAll stalls until every persist mechanism on this core is idle
// (used at workload teardown so all persists land before measurement or
// crash-free verification). Charged as a fence stall.
func (c *Core) DrainAll() {
	c.stallUntil(c.drainedFn, &c.stats.StallFenceCycles)
}

// CAS64 performs an atomic compare-and-swap (x86 LOCK CMPXCHG).
// Returns whether the swap succeeded.
func (c *Core) CAS64(addr mem.Addr, old, new uint64) bool {
	c.casOld, c.casNew = old, new
	return c.rmw(addr, c.casFn) == old
}

// AtomicAdd64 atomically adds delta to the value at addr and returns the
// new value (x86 LOCK XADD semantics).
func (c *Core) AtomicAdd64(addr mem.Addr, delta uint64) uint64 {
	c.addDelta = delta
	return c.rmw(addr, c.addFn) + delta
}

// rmw performs an atomic read-modify-write of the 8 bytes at addr: it
// drains the store queue (full-fence semantics), obtains exclusive
// ownership, and runs fn, which updates the value. It returns the value
// read, which the trace records.
func (c *Core) rmw(addr mem.Addr, fn func()) uint64 {
	c.stats.RMWs++
	start := c.eng.Now()
	c.stallUntil(c.sqEmpty, &c.stats.LockSpinCycles)
	c.rmwAddr = addr
	c.opDone = false
	c.l1.Store(mem.LineAddr(addr), fn)
	for !c.opDone {
		c.wake.Park(c.co)
	}
	c.NextSeq()
	c.stats.BusyUntil = c.eng.Now()
	c.traceOp(isa.OpRMW, addr, c.rmwRead, start)
	return c.rmwRead
}

// Compute models n cycles of non-memory work.
func (c *Core) Compute(n uint64) {
	if n == 0 {
		return
	}
	c.stats.ComputeCycles += n
	c.co.WaitCycles(sim.Cycle(n))
	c.stats.BusyUntil = c.eng.Now()
}

// Lock acquires the test-and-test-and-set spinlock at addr, spinning
// with bounded exponential backoff.
func (c *Core) Lock(addr mem.Addr) {
	backoff := uint64(8)
	start := c.eng.Now()
	for {
		if c.Load64(addr) == 0 && c.CAS64(addr, 0, 1) {
			c.stats.LockSpinCycles += uint64(c.eng.Now()-start) - 0
			return
		}
		c.Compute(backoff + c.backoffJitter())
		if backoff < 512 {
			backoff *= 2
		}
	}
}

// Unlock releases the spinlock at addr (a plain store: x86 stores have
// release semantics).
func (c *Core) Unlock(addr mem.Addr) {
	c.Store64(addr, 0)
}
