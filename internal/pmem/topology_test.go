package pmem

import (
	"reflect"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

func newTopo(n int) (*sim.Engine, *Topology, *mem.Machine) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.PMControllers = n
	m := mem.NewMachine()
	return eng, NewTopology(eng, cfg, m), m
}

func pmLine(i int) mem.Addr {
	return mem.PMBase + mem.Addr(i*mem.LineSize)
}

func TestTopologyZeroControllersMeansOne(t *testing.T) {
	_, tp, _ := newTopo(0)
	if tp.NumControllers() != 1 {
		t.Fatalf("NumControllers = %d, want 1 for zero-value config", tp.NumControllers())
	}
}

func TestTopologyIndexOfStripesLines(t *testing.T) {
	_, tp, _ := newTopo(4)
	for i := 0; i < 16; i++ {
		if got, want := tp.IndexOf(pmLine(i)), i%4; got != want {
			t.Errorf("IndexOf(line %d) = %d, want %d", i, got, want)
		}
	}
	// Sub-line offsets must not change the routing: the interleave is
	// on line numbers, not bytes.
	if tp.IndexOf(pmLine(1)+7) != tp.IndexOf(pmLine(1)) {
		t.Error("byte offset within a line changed the controller")
	}
	// DRAM lines route through the same function.
	if got := tp.IndexOf(mem.DRAMBase + mem.Addr(3*mem.LineSize)); got < 0 || got > 3 {
		t.Errorf("DRAM line routed out of range: %d", got)
	}
}

func TestTopologySubmitRoutesToOwningController(t *testing.T) {
	eng, tp, m := newTopo(4)
	for i := 0; i < 8; i++ {
		tp.SubmitPMWrite(pmLine(i), lineData(byte(i+1)), nil)
	}
	eng.Run(0)
	for i := 0; i < 8; i++ {
		if got := m.Persistent.ByteAt(pmLine(i)); got != byte(i+1) {
			t.Errorf("line %d persisted %d, want %d", i, got, i+1)
		}
	}
	// Each of the 4 controllers saw exactly 2 of the 8 lines.
	for ci, c := range tp.Controllers() {
		if st := c.Stats(); st.PMWritesAccepted != 2 {
			t.Errorf("controller %d accepted %d writes, want 2", ci, st.PMWritesAccepted)
		}
	}
	agg := tp.Stats()
	if agg.PMWritesAccepted != 8 || agg.PMWritesDrained != 8 {
		t.Errorf("aggregate stats %+v, want 8 accepted and drained", agg)
	}
}

func TestTopologyUnacceptedWritesGlobalSubmissionOrder(t *testing.T) {
	_, tp, _ := newTopo(4)
	// Submit in a deliberately controller-hopping order; before the
	// engine runs, nothing is accepted, and the merged view must report
	// global submission order, not per-controller order.
	order := []int{3, 0, 2, 1, 7, 5, 4, 6}
	for _, i := range order {
		tp.SubmitPMWrite(pmLine(i), lineData(byte(i+1)), nil)
	}
	ws := tp.Snapshot().Unaccepted
	if len(ws) != len(order) {
		t.Fatalf("%d unaccepted writes, want %d", len(ws), len(order))
	}
	for pos, i := range order {
		if ws[pos].Line != pmLine(i) {
			t.Errorf("position %d: line %v, want line %d (submission order)", pos, ws[pos].Line, i)
		}
		if ws[pos].Data[0] != byte(i+1) {
			t.Errorf("position %d: data %d, want %d", pos, ws[pos].Data[0], i+1)
		}
	}
}

func TestTopologySingleControllerPassThrough(t *testing.T) {
	_, tp, _ := newTopo(1)
	tp.SubmitPMWrite(pmLine(0), lineData(1), nil)
	tp.SubmitPMWrite(pmLine(1), lineData(2), nil)
	snap := tp.Snapshot()
	want := []LineWrite{{Line: pmLine(0), Data: lineData(1)}, {Line: pmLine(1), Data: lineData(2)}}
	if len(snap.Ctrls) != 1 || !reflect.DeepEqual(snap.Unaccepted, want) {
		t.Error("single-controller snapshot is not controller 0's stream in submission order")
	}
	if tp.IndexOf(pmLine(12345)) != 0 {
		t.Error("single-controller IndexOf must always be 0")
	}
}

func TestTopologyPerControllerIndexOrder(t *testing.T) {
	eng, tp, _ := newTopo(2)
	// 3 lines on controller 0 (even lines), 1 on controller 1.
	for _, i := range []int{0, 2, 4, 1} {
		tp.SubmitPMWrite(pmLine(i), lineData(9), nil)
	}
	eng.Run(0)
	per := tp.PerController()
	if len(per) != 2 {
		t.Fatalf("PerController returned %d entries, want 2", len(per))
	}
	if per[0].PMWritesAccepted != 3 || per[1].PMWritesAccepted != 1 {
		t.Errorf("per-controller accepted = %d,%d; want 3,1 (index order)",
			per[0].PMWritesAccepted, per[1].PMWritesAccepted)
	}
	agg := tp.Stats()
	if agg.PMWritesAccepted != per[0].PMWritesAccepted+per[1].PMWritesAccepted {
		t.Error("aggregate is not the sum of per-controller stats")
	}
}

func TestTopologySnapshotRestoreRoundTrip(t *testing.T) {
	eng, tp, _ := newTopo(4)
	for i := 0; i < 8; i++ {
		tp.SubmitPMWrite(pmLine(i), lineData(byte(i)), nil)
	}
	// Stop mid-flight so controllers hold real queue state: the first
	// writes accepted and draining to media, later ones in transit.
	eng.Run(sim.Cycle(300))
	for i := 8; i < 12; i++ {
		tp.SubmitPMWrite(pmLine(i), lineData(byte(i)), nil)
	}
	snap := tp.Snapshot()
	if len(snap.Ctrls) != 4 {
		t.Fatalf("snapshot has %d controller states, want 4", len(snap.Ctrls))
	}

	_, tp2, _ := newTopo(4)
	tp2.Restore(snap)
	if !reflect.DeepEqual(tp2.Snapshot(), snap) {
		t.Error("re-snapshot after restore differs from the original capture")
	}
	// The restored topology answers every post-crash query as the
	// original does at the capture point.
	accepted := 0
	for _, c := range snap.Ctrls {
		accepted += len(c.Accepted)
	}
	if len(snap.Unaccepted) == 0 || accepted == 0 {
		t.Fatal("expected both unaccepted and accepted-in-flight writes at the capture point")
	}
	if !reflect.DeepEqual(tp2.PerController(), tp.PerController()) {
		t.Error("restored per-controller Stats differ from the original")
	}
}

func TestTopologyRestoreRejectsMismatchedCount(t *testing.T) {
	_, tp2, _ := newTopo(2)
	_, tp4, _ := newTopo(4)
	defer func() {
		if recover() == nil {
			t.Error("Restore with a 2-controller capture into a 4-controller topology did not panic")
		}
	}()
	tp4.Restore(tp2.Snapshot())
}

func TestStatsAddMergeRule(t *testing.T) {
	a := Stats{
		PMWritesAccepted:   5,
		PMWritesDrained:    4,
		MaxWriteQueueDepth: 3,
		MaxPendingArrivals: 2,
		OverflowHighWater:  []OverflowSample{{Cycle: 10, Depth: 1}, {Cycle: 20, Depth: 2}},
	}
	b := Stats{
		PMWritesAccepted:   7,
		PMWritesDrained:    7,
		MaxWriteQueueDepth: 9,
		MaxPendingArrivals: 1,
		OverflowHighWater:  []OverflowSample{{Cycle: 5, Depth: 1}},
	}
	sum := a
	sum.Add(b)
	if sum.PMWritesAccepted != 12 || sum.PMWritesDrained != 11 {
		t.Errorf("counters did not sum: %+v", sum)
	}
	if sum.MaxWriteQueueDepth != 9 {
		t.Errorf("MaxWriteQueueDepth = %d, want max 9", sum.MaxWriteQueueDepth)
	}
	// OverflowHighWater follows the side with the deeper
	// MaxPendingArrivals — here a's.
	if sum.MaxPendingArrivals != 2 || len(sum.OverflowHighWater) != 2 {
		t.Errorf("overflow samples did not follow deeper side: %+v", sum)
	}
	// And the other way round.
	sum2 := b
	sum2.Add(a)
	if sum2.MaxPendingArrivals != 2 || len(sum2.OverflowHighWater) != 2 {
		t.Errorf("overflow samples did not follow deeper side (reversed): %+v", sum2)
	}
}
