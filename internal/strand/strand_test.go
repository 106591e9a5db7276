package strand

import (
	"testing"

	"strandweaver/internal/cache"
	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

func newUnit(buffers, entries int) (*sim.Engine, *BufferUnit, *mem.Machine) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.Cores = 1
	m := mem.NewMachine()
	ctrl := pmem.NewTopology(eng, cfg, m, false)
	h := cache.NewHierarchy(eng, cfg, m, ctrl)
	u := NewBufferUnit(eng, h.L1(0), buffers, entries)
	return eng, u, m
}

// dirty makes line dirty in the unit's L1 so a flush has work to do.
func dirty(eng *sim.Engine, u *BufferUnit, m *mem.Machine, line mem.Addr, v uint64) {
	u.l1.Store(line, func() { m.Volatile.Write64(line, v) })
	eng.Run(0)
}

func TestCLWBCompletesAndRetires(t *testing.T) {
	eng, u, m := newUnit(4, 4)
	line := mem.PMBase
	dirty(eng, u, m, line, 42)
	done := false
	if !u.TryAppendCLWB(line, nil, func() { done = true }) {
		t.Fatal("append rejected on empty buffer")
	}
	eng.Run(0)
	if !done {
		t.Fatal("CLWB never completed")
	}
	if !u.Drained() {
		t.Error("unit not drained after completion")
	}
	if m.Persistent.Read64(line) != 42 {
		t.Error("CLWB did not persist")
	}
}

// TestPersistBarrierOrdersWithinBuffer: a CLWB behind a barrier must not
// issue until everything ahead of the barrier completes.
func TestPersistBarrierOrdersWithinBuffer(t *testing.T) {
	eng, u, m := newUnit(4, 4)
	a, b := mem.PMBase, mem.PMBase+mem.LineSize
	dirty(eng, u, m, a, 1)
	dirty(eng, u, m, b, 2)
	var doneA, doneB, pbDone bool
	u.TryAppendCLWB(a, nil, func() {
		doneA = true
		if doneB {
			t.Error("B completed before A despite barrier")
		}
	})
	u.TryAppendPB(func() {
		pbDone = true
		if !doneA {
			t.Error("barrier completed before A")
		}
	})
	u.TryAppendCLWB(b, nil, func() {
		doneB = true
		if !pbDone {
			t.Error("B completed before the barrier")
		}
	})
	eng.Run(0)
	if !doneA || !doneB || !pbDone {
		t.Fatalf("incomplete: A=%v PB=%v B=%v", doneA, pbDone, doneB)
	}
}

// TestStrandsDrainConcurrently: CLWBs on different strands overlap;
// MaxInFlight must exceed 1.
func TestStrandsDrainConcurrently(t *testing.T) {
	eng, u, m := newUnit(4, 4)
	for i := 0; i < 4; i++ {
		line := mem.PMBase + mem.Addr(i)*mem.LineSize
		dirty(eng, u, m, line, uint64(i))
	}
	for i := 0; i < 4; i++ {
		line := mem.PMBase + mem.Addr(i)*mem.LineSize
		u.TryAppendCLWB(line, nil, nil)
		u.NewStrand(nil)
	}
	eng.Run(0)
	if got := u.Stats().MaxInFlight; got < 4 {
		t.Errorf("MaxInFlight = %d, want 4 (inter-strand concurrency)", got)
	}
}

// TestBarrierDoesNotOrderAcrossStrands: with a PB on strand 0, a CLWB on
// strand 1 may complete before strand 0's pre-barrier CLWB.
func TestBarrierDoesNotOrderAcrossStrands(t *testing.T) {
	eng, u, m := newUnit(4, 4)
	a, b, c := mem.PMBase, mem.PMBase+64, mem.PMBase+128
	for i, ln := range []mem.Addr{a, b, c} {
		dirty(eng, u, m, ln, uint64(i+1))
	}
	var orderedDone int
	u.TryAppendCLWB(a, nil, func() { orderedDone++ })
	u.TryAppendPB(nil)
	u.TryAppendCLWB(b, nil, func() { orderedDone++ })
	u.NewStrand(nil)
	cInFlightEarly := false
	u.TryAppendCLWB(c, nil, func() {
		if orderedDone < 2 {
			cInFlightEarly = true
		}
	})
	eng.Run(0)
	if !cInFlightEarly {
		t.Error("C did not complete before strand 0 finished; strands are serialised")
	}
}

func TestRoundRobinRotation(t *testing.T) {
	_, u, _ := newUnit(3, 4)
	if u.OngoingIndex() != 0 {
		t.Fatal("initial index not 0")
	}
	for want := 1; want <= 4; want++ {
		u.NewStrand(nil)
		if got := u.OngoingIndex(); got != want%3 {
			t.Errorf("after %d NewStrands index = %d, want %d", want, got, want%3)
		}
	}
	if u.Stats().NewStrands != 4 {
		t.Errorf("NewStrands = %d", u.Stats().NewStrands)
	}
}

func TestBufferCapacityRejects(t *testing.T) {
	eng, u, m := newUnit(1, 2)
	a, b, c := mem.PMBase, mem.PMBase+64, mem.PMBase+128
	for i, ln := range []mem.Addr{a, b, c} {
		dirty(eng, u, m, ln, uint64(i+1))
	}
	// Stall issue with an artificial gate so entries stay resident.
	hold := true
	gate := func() bool { return !hold }
	if !u.TryAppendCLWB(a, gate, nil) || !u.TryAppendCLWB(b, gate, nil) {
		t.Fatal("appends within capacity rejected")
	}
	if u.TryAppendCLWB(c, gate, nil) {
		t.Fatal("append beyond capacity accepted")
	}
	if u.Occupancy(0) != 2 {
		t.Fatalf("occupancy %d", u.Occupancy(0))
	}
	hold = false
	u.Kick()
	eng.Run(0)
	if !u.Drained() {
		t.Error("unit did not drain after gate release")
	}
	// Space freed: append accepted now.
	if !u.TryAppendCLWB(c, nil, nil) {
		t.Error("append rejected after drain")
	}
	eng.Run(0)
}

func TestGateTokenDrainTracking(t *testing.T) {
	eng, u, m := newUnit(2, 4)
	a := mem.PMBase
	dirty(eng, u, m, a, 1)
	hold := true
	u.TryAppendCLWB(a, func() bool { return !hold }, nil)
	tok := u.RecordTails()
	drained := false
	u.CallWhenDrained(tok, func() { drained = true })
	eng.Run(0)
	if drained {
		t.Fatal("gate reported drained while CLWB pending")
	}
	hold = false
	u.Kick()
	eng.Run(0)
	if !drained {
		t.Error("gate never reported drained")
	}
	// A token recorded now is satisfied immediately.
	immediate := false
	u.CallWhenDrained(u.RecordTails(), func() { immediate = true })
	eng.Run(0)
	if !immediate {
		t.Error("empty-unit token not immediately drained")
	}
}

// --- persist queue ---

type trackerStub struct {
	pendingLine map[mem.Addr]bool
	// pendingStores holds program-order sequence numbers of undrained
	// stores.
	pendingStores map[uint64]bool
}

func newTrackerStub() *trackerStub {
	return &trackerStub{pendingLine: map[mem.Addr]bool{}, pendingStores: map[uint64]bool{}}
}

func (s *trackerStub) HasPendingStoreToLine(line mem.Addr, seq uint64) bool {
	return s.pendingLine[line]
}
func (s *trackerStub) HasPendingStoreBefore(seq uint64) bool {
	for k := range s.pendingStores {
		if k < seq {
			return true
		}
	}
	return false
}

func TestPersistQueueInOrderIssue(t *testing.T) {
	eng, u, m := newUnit(4, 4)
	tr := newTrackerStub()
	pq := NewPersistQueue(eng, u, tr, 16)
	a, b := mem.PMBase, mem.PMBase+64
	dirty(eng, u, m, a, 1)
	dirty(eng, u, m, b, 2)
	// Block the first CLWB on a same-line pending store: the second must
	// NOT issue ahead of it (in-order issue).
	tr.pendingLine[a] = true
	e1 := pq.InsertCLWB(1, a, 0)
	e2 := pq.InsertCLWB(2, b, 0)
	eng.Run(0)
	if e1.HasIssued() || e2.HasIssued() {
		t.Fatal("issue happened despite same-line store dependency at the head")
	}
	tr.pendingLine[a] = false
	pq.Pump()
	eng.Run(0)
	if !e1.Completed() || !e2.Completed() {
		t.Fatal("entries did not complete after dependency cleared")
	}
	if !pq.Empty() {
		t.Error("queue not drained")
	}
}

func TestPersistQueueBarrierStoreRule(t *testing.T) {
	eng, u, m := newUnit(4, 4)
	tr := newTrackerStub()
	pq := NewPersistQueue(eng, u, tr, 16)
	a := mem.PMBase
	dirty(eng, u, m, a, 1)
	// CLWB with barrierSeq=5: stores older than seq 5 must drain first.
	tr.pendingStores[4] = true
	e := pq.InsertCLWB(6, a, 5)
	eng.Run(0)
	if e.HasIssued() {
		t.Fatal("CLWB issued while pre-barrier stores pending")
	}
	delete(tr.pendingStores, 4)
	pq.Pump()
	eng.Run(0)
	if !e.Completed() {
		t.Error("CLWB never completed")
	}
}

func TestJoinStrandCompletion(t *testing.T) {
	eng, u, m := newUnit(4, 4)
	tr := newTrackerStub()
	pq := NewPersistQueue(eng, u, tr, 16)
	a := mem.PMBase
	dirty(eng, u, m, a, 1)
	pq.InsertCLWB(1, a, 0)
	// JS with elder stores still pending: must not retire.
	tr.pendingStores[2] = true
	js := pq.InsertJS(3)
	eng.Run(0)
	if js.Retired() {
		t.Fatal("JoinStrand retired with elder stores pending")
	}
	delete(tr.pendingStores, 2)
	pq.Pump()
	eng.Run(0)
	if !js.Retired() {
		t.Error("JoinStrand never retired")
	}
}

func TestPersistQueueCapacityPanic(t *testing.T) {
	eng, u, _ := newUnit(1, 1)
	tr := &trackerStub{pendingLine: map[mem.Addr]bool{mem.PMBase: true}}
	pq := NewPersistQueue(eng, u, tr, 2)
	pq.InsertCLWB(1, mem.PMBase, 0)
	pq.InsertCLWB(2, mem.PMBase, 0)
	if !pq.Full() {
		t.Fatal("queue should be full")
	}
	defer func() {
		if recover() == nil {
			t.Error("insert into full queue did not panic")
		}
	}()
	pq.InsertCLWB(3, mem.PMBase, 0)
}

// TestRunningExampleFigure4 walks the paper's Figure 4 step by step:
// CLWB(A); PB; CLWB(B); NS; CLWB(C); JS; CLWB(D) and checks the
// documented issue/completion structure: C issues concurrent to A,
// B waits for A's completion, D waits for everything.
func TestRunningExampleFigure4(t *testing.T) {
	eng, u, m := newUnit(4, 4)
	tr := newTrackerStub()
	pq := NewPersistQueue(eng, u, tr, 16)
	A, B, C, D := mem.PMBase, mem.PMBase+64, mem.PMBase+128, mem.PMBase+192
	for i, ln := range []mem.Addr{A, B, C, D} {
		dirty(eng, u, m, ln, uint64(i+1))
	}

	var completions []string
	track := func(name string, e *Entry) *Entry { _ = e; return e }
	_ = track

	// Step 1-2: CLWB(A) appended to strand buffer 0 and issued.
	eA := pq.InsertCLWB(1, A, 0)
	// Step 3: PB and CLWB(B) appended; B stalls behind the barrier.
	pq.InsertPB(2)
	eB := pq.InsertCLWB(3, B, 2)
	// Step 4: NewStrand rotates the ongoing buffer to 1.
	pq.InsertNS(4)
	// Step 5: CLWB(C) appended to buffer 1 — no barrier dependency.
	eC := pq.InsertCLWB(5, C, 0)
	pq.Pump()

	// Before any completion arrives: A and C must have issued
	// concurrently; B must not have issued (barrier).
	if !eA.HasIssued() || !eC.HasIssued() {
		t.Fatalf("A/C not issued concurrently: A=%v C=%v", eA.HasIssued(), eC.HasIssued())
	}
	if u.Stats().CLWBsIssued != 2 {
		t.Fatalf("CLWBs issued = %d, want 2 (A and C)", u.Stats().CLWBsIssued)
	}
	if u.OngoingIndex() != 1 {
		t.Fatalf("ongoing buffer = %d, want 1 after NewStrand", u.OngoingIndex())
	}

	// Steps 6-7: run until B persists. eB.HasIssued refers to persist-
	// queue issue (appending to the strand buffer), which happens
	// immediately; the barrier gates the flush inside the buffer, so
	// the observable guarantee is persist order: when B's data is in
	// PM, A's must already be.
	eng.RunUntil(func() bool { return m.Persistent.Read64(B) == 2 }, 0)
	if m.Persistent.Read64(A) != 1 {
		t.Error("B persisted before A (barrier violated)")
	}
	if !eB.HasIssued() {
		t.Error("B persisted without its persist-queue entry issuing")
	}

	// Steps 8-9: JS stalls D until A, B, C complete.
	js := pq.InsertJS(6)
	eng.RunUntil(func() bool { return js.Retired() }, 0)
	if !eA.Completed() || !eB.Completed() || !eC.Completed() {
		t.Fatal("JoinStrand retired before A, B, C completed")
	}
	eD := pq.InsertCLWB(7, D, 0)
	eng.Run(0)
	if !eD.Completed() {
		t.Fatal("D never completed")
	}
	_ = completions
	for i, ln := range []mem.Addr{A, B, C, D} {
		if m.Persistent.Read64(ln) != uint64(i+1) {
			t.Errorf("location %d not persisted", i)
		}
	}
}
