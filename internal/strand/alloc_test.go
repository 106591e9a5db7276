package strand

import (
	"testing"

	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// pqRound pushes one CLWB, persist barrier, CLWB, NewStrand and
// JoinStrand through pq and runs eng until they retire, dirtying the
// flushed lines first so both flushes reach the controller.
type pqRound struct {
	eng  *sim.Engine
	u    *BufferUnit
	pq   *PersistQueue
	seq  uint64
	nop  func()
	a, b mem.Addr
}

func newPQRound() *pqRound {
	eng, u, _ := newUnit(4, 4)
	return &pqRound{
		eng: eng,
		u:   u,
		pq:  NewPersistQueue(eng, u, newTrackerStub(), 16),
		nop: func() {},
		a:   mem.PMBase,
		b:   mem.PMBase + mem.LineSize,
	}
}

func (r *pqRound) next() uint64 {
	r.seq++
	return r.seq
}

func (r *pqRound) run() {
	r.u.l1.Store(r.a, r.nop)
	r.u.l1.Store(r.b, r.nop)
	r.eng.Run(0)
	r.pq.InsertCLWB(r.next(), r.a, 0)
	pb := r.next()
	r.pq.InsertPB(pb)
	r.pq.InsertCLWB(r.next(), r.b, pb)
	r.pq.InsertNS(r.next())
	r.pq.InsertJS(r.next())
	r.eng.Run(0)
}

// Persist-queue insert → issue → complete, through the strand buffer
// unit and its gate tokens, allocates nothing in steady state.
func TestPersistQueueZeroAlloc(t *testing.T) {
	r := newPQRound()
	r.run()
	if n := testing.AllocsPerRun(100, r.run); n != 0 {
		t.Errorf("persist-queue round allocated %.1f times, want 0", n)
	}
	if !r.pq.Empty() || !r.u.Drained() {
		t.Fatal("round did not drain")
	}
	drained := false
	onDrained := func() { drained = true }
	gate := func() {
		r.u.TryAppendCLWB(r.a, nil, nil)
		r.u.CallWhenDrained(r.u.RecordTails(), onDrained)
		r.eng.Run(0)
	}
	gate()
	if !drained {
		t.Fatal("gate never drained")
	}
	if n := testing.AllocsPerRun(100, gate); n != 0 {
		t.Errorf("gate record/drain allocated %.1f times, want 0", n)
	}
	// A queue that never empties — each step retires one CLWB while a
	// younger one is in flight — reuses its arrays instead of growing
	// them. One run of many steps, because AllocsPerRun truncates the
	// per-run average and would hide amortized growth.
	oneLeft := func() bool { return r.pq.Len() == 1 }
	r.pq.InsertCLWB(r.next(), r.a, 0)
	steady := func() {
		for i := 0; i < 1000; i++ {
			r.pq.InsertCLWB(r.next(), r.a, 0)
			r.eng.RunUntil(oneLeft, 0)
		}
	}
	if n := testing.AllocsPerRun(1, steady); n != 0 {
		t.Errorf("never-empty persist queue allocated %.0f times over 1000 CLWBs, want 0", n)
	}
	if r.u.Drained() {
		t.Error("strand buffer emptied; the steady state should keep one CLWB in flight")
	}
}

// An Entry handle answers for its own entry after the queue recycles
// the entry's storage for younger ones.
func TestEntryHandleOutlivesRecycling(t *testing.T) {
	r := newPQRound()
	r.u.l1.Store(r.a, r.nop)
	r.eng.Run(0)
	pb := r.pq.InsertPB(r.next())
	js := r.pq.InsertJS(r.next())
	r.eng.Run(0)
	if !pb.HasIssued() || !pb.Completed() || !js.Retired() {
		t.Fatal("barrier and join did not retire")
	}
	// A younger barrier reuses the retired slots and stays unissued
	// behind a blocked CLWB; the old handles must not follow it.
	tr := r.pq.tracker.(*trackerStub)
	tr.pendingLine[r.a] = true
	clwb := r.pq.InsertCLWB(r.next(), r.a, 0)
	young := r.pq.InsertPB(r.next())
	r.eng.Run(0)
	if young.HasIssued() || clwb.HasIssued() {
		t.Fatal("entries issued past a pending same-line store")
	}
	if !pb.HasIssued() || !pb.Completed() || !js.Retired() {
		t.Error("a recycled slot answered for an older entry")
	}
	if js.HasIssued() {
		t.Error("JoinStrand reported issued")
	}
	tr.pendingLine[r.a] = false
	r.pq.Pump()
	r.eng.Run(0)
	if !young.Retired() || !clwb.Completed() {
		t.Error("younger entries never retired")
	}
}

// BenchmarkPersistQueueCLWB measures one CLWB of a dirty line through
// the persist queue, the strand buffer unit and the L1 flush datapath,
// after a warm-up so that even a one-iteration run reports the
// steady-state allocations.
func BenchmarkPersistQueueCLWB(b *testing.B) {
	r := newPQRound()
	clwb := func() {
		r.u.l1.Store(r.a, r.nop)
		r.eng.Run(0)
		r.pq.InsertCLWB(r.next(), r.a, 0)
		r.eng.Run(0)
	}
	clwb()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clwb()
	}
}
