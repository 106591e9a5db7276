package backend

import (
	"strandweaver/internal/cache"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/strand"
)

func init() {
	register(hwdesign.StrandWeaver, swPlan, newStrandWeaver)
}

// swBackend is the full StrandWeaver proposal: a persist queue beside
// the store queue records CLWBs, persist barriers, NewStrand and
// JoinStrand in program order and enforces the issue-side ordering
// rules; the strand buffer unit beside the L1 schedules CLWBs from
// different strands to PM concurrently (Section IV).
type swBackend struct {
	sbu *strand.BufferUnit
	pq  *strand.PersistQueue

	// lastPBSeq and lastNSSeq locate the youngest persist barrier and
	// NewStrand in program order: younger stores wait until that
	// barrier has issued, unless a NewStrand cleared its hold on them.
	lastPBSeq, lastNSSeq uint64
	// join is the JoinStrand the front-end is stalled on.
	join strand.Entry

	// pqNotFull, pbIssued and joinRetired are the reusable persist-queue
	// stall and store-gate conditions, built once (CLWB, every barrier
	// and every gated store use one; building them per issue allocates
	// on the hottest path in the simulator).
	pqNotFull, joinRetired func() bool
	pbIssued               func(seq uint64) bool
}

func newStrandWeaver(d Deps) Backend {
	b := &swBackend{}
	b.sbu = strand.NewBufferUnit(d.Eng, d.L1, d.Cfg.StrandBuffers, d.Cfg.StrandBufferEntries)
	b.pq = strand.NewPersistQueue(d.Eng, b.sbu, d.Tracker, d.Cfg.PersistQueueEntries)
	b.pq.SetOnChange(d.Kick)
	b.sbu.OnChange(d.Kick)
	b.pqNotFull = func() bool { return !b.pq.Full() }
	b.pbIssued = b.pq.Issued
	b.joinRetired = func() bool { return b.join.Retired() }
	return b
}

func (b *swBackend) Gate() cache.PersistGate { return b.sbu }

func (b *swBackend) OnStoreVisible(mem.Addr, uint64, uint8) {}

// barrierSeqForCLWB returns the sequence of the youngest elder persist
// barrier not cleared by a later NewStrand (0 if none): the stores that
// a CLWB must wait for under the persist-barrier rule.
func (b *swBackend) barrierSeqForCLWB() uint64 {
	if b.lastPBSeq > b.lastNSSeq {
		return b.lastPBSeq
	}
	return 0
}

// StoreGate enforces the persist-barrier rule's store side: a store
// after a persist barrier waits until the barrier (and hence all elder
// CLWBs) has issued to the strand buffer unit — issue, not completion,
// is the relaxation. The gate names the barrier by seq.
func (b *swBackend) StoreGate() StoreGate {
	if b.lastPBSeq > b.lastNSSeq && !b.pq.Issued(b.lastPBSeq) {
		return StoreGate{Ready: b.pbIssued, Seq: b.lastPBSeq}
	}
	return StoreGate{}
}

func (b *swBackend) CLWB(h Host, line mem.Addr) {
	h.StallUntil(b.pqNotFull, StallQueueFull)
	b.pq.InsertCLWB(h.NextSeq(), line, b.barrierSeqForCLWB())
}

func (b *swBackend) Barrier(h Host, k isa.OpKind) error {
	switch k {
	case isa.OpPersistBarrier:
		seq := h.NextSeq()
		h.StallUntil(b.pqNotFull, StallQueueFull)
		b.pq.InsertPB(seq)
		b.lastPBSeq = seq
	case isa.OpNewStrand:
		seq := h.NextSeq()
		h.StallUntil(b.pqNotFull, StallQueueFull)
		b.pq.InsertNS(seq)
		b.lastNSSeq = seq
	case isa.OpJoinStrand:
		seq := h.NextSeq()
		h.StallUntil(b.pqNotFull, StallQueueFull)
		b.join = b.pq.InsertJS(seq)
		h.StallUntil(b.joinRetired, StallFence)
		// A join resets strand state: subsequent operations start
		// ordering afresh.
		b.lastPBSeq, b.lastNSSeq = 0, 0
	default:
		return unavailable(hwdesign.StrandWeaver, k)
	}
	return nil
}

func (b *swBackend) Pump() {
	b.pq.Pump()
	b.sbu.Kick()
}

func (b *swBackend) Drained() bool { return b.pq.Empty() && b.sbu.Drained() }

// swPlan maps each logging requirement to the cheapest strand
// primitive that discharges it (the paper's Figure 5 rightmost column).
var swPlan = OrderingPlan{
	BeginPair:   isa.OpNewStrand,
	LogToUpdate: isa.OpPersistBarrier,
	CommitOrder: isa.OpJoinStrand,
	RegionEnd:   isa.OpNone,
	Durable:     isa.OpJoinStrand,
}

func (b *swBackend) Stats() []Stat {
	qs := b.pq.Stats()
	us := b.sbu.Stats()
	return []Stat{
		{"pq_clwbs", qs.CLWBs},
		{"pq_pbs", qs.PBs},
		{"pq_new_strands", qs.NSs},
		{"pq_joins", qs.JSs},
		{"pq_max_occupancy", uint64(qs.MaxOccupancy)},
		{"sbu_clwbs_accepted", us.CLWBsAccepted},
		{"sbu_clwbs_issued", us.CLWBsIssued},
		{"sbu_max_in_flight", uint64(us.MaxInFlight)},
	}
}
