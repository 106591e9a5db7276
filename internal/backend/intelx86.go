package backend

import (
	"strandweaver/internal/cache"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// intelPlan is Intel's logging-order mapping: SFENCE is the only
// primitive, so every ordering requirement that needs anything at all
// takes a full store-queue + flush drain.
var intelPlan = OrderingPlan{
	BeginPair:   isa.OpNone,
	LogToUpdate: isa.OpSFence,
	CommitOrder: isa.OpSFence,
	RegionEnd:   isa.OpNone,
	Durable:     isa.OpSFence,
}

func init() {
	register(hwdesign.IntelX86, intelPlan, func(d Deps) Backend {
		return newFlushBackend(hwdesign.IntelX86, d)
	})
}

// flushBackend is the direct-flush persist path shared by the IntelX86
// and NonAtomic designs: CLWBs travel through the store queue in
// program order and flush straight from the L1 at the head; SFENCE
// stalls until the store queue is empty and every dispatched flush has
// been acknowledged by the PM controller (Section II-B: SFENCE "stalls
// issue for subsequent updates until prior CLWBs complete"). The two
// designs differ only in their ordering plan — NonAtomic's runtime
// never issues the fence.
type flushBackend struct {
	design hwdesign.Design
	eng    *sim.Engine
	l1     *cache.L1
	kick   func()

	// flushes counts direct CLWBs in flight; SFENCE waits for zero.
	flushes int

	// notFull and drainedCond are the reusable stall conditions for the
	// (single) host queue, built on first use to avoid per-issue
	// allocation.
	notFull, drainedCond func() bool

	// Single-slot dispatch state plus thunks built once: the store queue
	// steps at most one directFlush at a time (the op holds the queue
	// head until its dispatch pops it), so one pending line/pop pair
	// covers every CLWB, and the flush-done callback captures nothing
	// per flush. The steady-state CLWB path allocates nothing.
	pendingLine mem.Addr
	pendingPop  func()
	dispatchFn  func()
	flushDoneFn func()
	freeOps     sim.FreeList[*directFlush]

	dispatched uint64
	sfences    uint64
}

func newFlushBackend(d hwdesign.Design, deps Deps) *flushBackend {
	b := &flushBackend{design: d, eng: deps.Eng, l1: deps.L1, kick: deps.Kick}
	b.flushDoneFn = func() {
		b.flushes--
		b.kick()
	}
	b.dispatchFn = func() {
		line, pop := b.pendingLine, b.pendingPop
		b.pendingPop = nil
		b.l1.Flush(line, b.flushDoneFn)
		pop()
	}
	return b
}

func (b *flushBackend) Gate() cache.PersistGate { return nil }
func (b *flushBackend) StoreGate() StoreGate    { return StoreGate{} }

func (b *flushBackend) OnStoreVisible(mem.Addr, uint64, uint8) {}

func (b *flushBackend) CLWB(h Host, line mem.Addr) {
	if b.notFull == nil {
		q := h.Queue()
		b.notFull = func() bool { return !q.Full() }
	}
	h.StallUntil(b.notFull, StallQueueFull)
	f, ok := b.freeOps.Get()
	if !ok {
		f = &directFlush{b: b}
	}
	f.line = line
	h.Queue().Enqueue(h.NextSeq(), f)
}

func (b *flushBackend) Barrier(h Host, k isa.OpKind) error {
	if k != isa.OpSFence {
		return unavailable(b.design, k)
	}
	h.NextSeq()
	if b.drainedCond == nil {
		q := h.Queue()
		b.drainedCond = func() bool { return q.Empty() && b.flushes == 0 }
	}
	h.StallUntil(b.drainedCond, StallFence)
	b.sfences++
	return nil
}

func (b *flushBackend) Pump() {}

func (b *flushBackend) Drained() bool { return b.flushes == 0 }

func (b *flushBackend) Stats() []Stat {
	return []Stat{
		{"direct_flushes_dispatched", b.dispatched},
		{"sfences_completed", b.sfences},
	}
}

// directFlush is a CLWB at the store-queue head: the entry frees once
// the flush dispatches (one dispatch cycle), and SFENCE tracks its
// completion through the in-flight counter.
type directFlush struct {
	b    *flushBackend
	line mem.Addr
}

func (f *directFlush) Step(pop func()) StepStatus {
	b := f.b
	b.flushes++
	b.dispatched++
	b.pendingLine, b.pendingPop = f.line, pop
	b.eng.Schedule(1, b.dispatchFn)
	// f's line has been captured into the pending slot; the op itself is
	// dead (Step runs once) and can be recycled immediately.
	b.freeOps.Put(f)
	return OpAsync
}
