package backend

import (
	"strandweaver/internal/cache"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
	"strandweaver/internal/strand"
)

func init() {
	register(hwdesign.NoPersistQueue, nopqPlan, newNoPQ)
}

// nopqBackend is StrandWeaver without the persist queue (the paper's
// ablation): the strand buffer unit is present, but CLWBs and strand
// primitives travel through the store queue in program order and drain
// into the unit only at the head — the head-of-line blocking the
// persist queue exists to remove.
type nopqBackend struct {
	sbu  *strand.BufferUnit
	kick func()

	// pb, ns and js are the stateless store-queue ops, shared across
	// issues (the store queue holds at most one of each kind of work
	// item's state, which lives in the queue entry, not the op). notFull
	// and empty are the reusable stall conditions; both avoid per-issue
	// allocation.
	pb, ns, js     QueuedOp
	notFull, empty func() bool
	// freeCLWBs recycles CLWB ops: an op is dead once the unit accepts
	// its flush.
	freeCLWBs sim.FreeList[*sbuCLWB]
}

func newNoPQ(d Deps) Backend {
	b := &nopqBackend{kick: d.Kick}
	b.sbu = strand.NewBufferUnit(d.Eng, d.L1, d.Cfg.StrandBuffers, d.Cfg.StrandBufferEntries)
	b.sbu.OnChange(d.Kick)
	b.pb, b.ns, b.js = &sbuPB{b: b}, &sbuNS{b: b}, &sbuJS{b: b}
	return b
}

// queueNotFull returns the cached not-full stall condition for h's
// store queue (each backend instance serves exactly one core), and
// builds the empty one alongside it.
func (b *nopqBackend) queueNotFull(h Host) func() bool {
	if b.notFull == nil {
		q := h.Queue()
		b.notFull = func() bool { return !q.Full() }
		b.empty = q.Empty
	}
	return b.notFull
}

func (b *nopqBackend) Gate() cache.PersistGate { return b.sbu }
func (b *nopqBackend) StoreGate() StoreGate    { return StoreGate{} }

func (b *nopqBackend) OnStoreVisible(mem.Addr, uint64, uint8) {}

func (b *nopqBackend) CLWB(h Host, line mem.Addr) {
	h.StallUntil(b.queueNotFull(h), StallQueueFull)
	o, ok := b.freeCLWBs.Get()
	if !ok {
		o = &sbuCLWB{b: b}
	}
	o.line = line
	h.Queue().Enqueue(h.NextSeq(), o)
}

func (b *nopqBackend) Barrier(h Host, k isa.OpKind) error {
	q := h.Queue()
	switch k {
	case isa.OpPersistBarrier:
		seq := h.NextSeq()
		h.StallUntil(b.queueNotFull(h), StallQueueFull)
		q.Enqueue(seq, b.pb)
	case isa.OpNewStrand:
		seq := h.NextSeq()
		h.StallUntil(b.queueNotFull(h), StallQueueFull)
		q.Enqueue(seq, b.ns)
	case isa.OpJoinStrand:
		seq := h.NextSeq()
		h.StallUntil(b.queueNotFull(h), StallQueueFull)
		q.Enqueue(seq, b.js)
		h.StallUntil(b.empty, StallFence)
	default:
		return unavailable(hwdesign.NoPersistQueue, k)
	}
	return nil
}

func (b *nopqBackend) Pump() { b.sbu.Kick() }

func (b *nopqBackend) Drained() bool { return b.sbu.Drained() }

// nopqPlan is the strand plan (the ablation removes the persist queue,
// not the primitives).
var nopqPlan = OrderingPlan{
	BeginPair:   isa.OpNewStrand,
	LogToUpdate: isa.OpPersistBarrier,
	CommitOrder: isa.OpJoinStrand,
	RegionEnd:   isa.OpNone,
	Durable:     isa.OpJoinStrand,
}

func (b *nopqBackend) Stats() []Stat {
	s := b.sbu.Stats()
	return []Stat{
		{"sbu_clwbs_accepted", s.CLWBsAccepted},
		{"sbu_clwbs_issued", s.CLWBsIssued},
		{"sbu_pbs_accepted", s.PBsAccepted},
		{"sbu_new_strands", s.NewStrands},
	}
}

// sbuCLWB occupies the store-queue head until the strand buffer unit
// accepts the flush; the store queue then pops it and it is recycled.
type sbuCLWB struct {
	b    *nopqBackend
	line mem.Addr
}

func (o *sbuCLWB) Step(pop func()) StepStatus {
	if !o.b.sbu.TryAppendCLWB(o.line, nil, o.b.kick) {
		return OpBlocked
	}
	o.b.freeCLWBs.Put(o)
	return OpDone
}

// sbuPB occupies the head until the unit accepts the persist barrier.
type sbuPB struct{ b *nopqBackend }

func (o *sbuPB) Step(pop func()) StepStatus {
	if !o.b.sbu.TryAppendPB(o.b.kick) {
		return OpBlocked
	}
	return OpDone
}

// sbuNS rotates the ongoing strand buffer; acknowledged immediately.
type sbuNS struct{ b *nopqBackend }

func (o *sbuNS) Step(pop func()) StepStatus {
	o.b.sbu.NewStrand(nil)
	return OpDone
}

// sbuJS blocks the store queue until everything appended to the unit so
// far has completed and retired (the front-end is meanwhile stalled on
// an empty queue, so nothing enters behind it).
type sbuJS struct{ b *nopqBackend }

func (o *sbuJS) Step(pop func()) StepStatus {
	tok := o.b.sbu.RecordTails()
	o.b.sbu.CallWhenDrained(tok, pop)
	return OpAsync
}
