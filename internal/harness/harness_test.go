package harness

import (
	"strings"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/sim"
)

func TestRunBasics(t *testing.T) {
	r, err := Run(Spec{Benchmark: "hashmap", Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
		Threads: 4, OpsPerThread: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.CKC <= 0 || r.OpsPerMCycle <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
	if r.TotalOps != 80 {
		t.Errorf("TotalOps = %d", r.TotalOps)
	}
	if r.CoreTotals.CLWBs == 0 {
		t.Error("no CLWBs recorded")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run(Spec{Benchmark: "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := Spec{Benchmark: "nstore-bal", Model: langmodel.TXN, Design: hwdesign.HOPS, Threads: 4, OpsPerThread: 15}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("non-deterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestRunWithCrashVerifies(t *testing.T) {
	spec := Spec{Benchmark: "arrayswap", Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
		Threads: 4, OpsPerThread: 15}
	base, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Cuts at a quarter and half of the run, and at end+1: the drained
	// final state.
	var end sim.Cycle
	reps, err := RunWithCrash(spec, func(e sim.Cycle) []sim.Cycle {
		end = e
		return []sim.Cycle{e / 4, e / 2, e + 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(end) != base.Cycles {
		t.Errorf("cuts placed over %d cycles, want the crash-free length %d", end, base.Cycles)
	}
	if len(reps) != 3 {
		t.Fatalf("%d recovery reports, want one per cut (3)", len(reps))
	}
	if n := len(reps[2].RolledBack); n != 0 {
		t.Errorf("crash after the drained final state rolled back %d mutations, want 0", n)
	}
}

func TestTable2ShapeAndOrder(t *testing.T) {
	rows, err := Table2(ExpOptions{Threads: 4, OpsPerThread: 30,
		Benchmarks: []string{"queue", "nstore-rd", "nstore-wr"}})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.CKC <= 0 {
			t.Errorf("%s: CKC = %f", r.Benchmark, r.CKC)
		}
		byName[r.Benchmark] = r.CKC
	}
	// Table II shape: the write-heavy KV mix is strictly more write-
	// intensive than the read-heavy mix and the queue.
	if !(byName["nstore-wr"] > byName["nstore-rd"]) {
		t.Errorf("nstore-wr (%f) not above nstore-rd (%f)", byName["nstore-wr"], byName["nstore-rd"])
	}
	if !(byName["nstore-wr"] > byName["queue"]) {
		t.Errorf("nstore-wr (%f) not above queue (%f)", byName["nstore-wr"], byName["queue"])
	}
}

func TestGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid is slow")
	}
	g, err := RunGrid(ExpOptions{Threads: 8, OpsPerThread: 40, Benchmarks: []string{"nstore-wr"}})
	if err != nil {
		t.Fatal(err)
	}
	cl := ComputeClaims(g)
	// The paper's headline shape: SW beats Intel and HOPS; NoPQ sits
	// between Intel and SW; NonAtomic is the upper bound.
	if cl.SWvsIntelGeo <= 1.05 {
		t.Errorf("SW vs Intel = %.2f, want > 1.05", cl.SWvsIntelGeo)
	}
	if cl.SWvsHOPSGeo <= 1.0 {
		t.Errorf("SW vs HOPS = %.2f, want > 1", cl.SWvsHOPSGeo)
	}
	if cl.NoPQvsIntelGeo <= 1.0 {
		t.Errorf("NoPQ vs Intel = %.2f, want > 1", cl.NoPQvsIntelGeo)
	}
	if cl.SWvsNoPQGeo <= 1.0 {
		t.Errorf("SW vs NoPQ = %.2f, want > 1", cl.SWvsNoPQGeo)
	}
	na := GeoMean(g.Speedups(hwdesign.NonAtomic))
	sw := cl.SWvsIntelGeo
	if na < sw {
		t.Errorf("NonAtomic (%.2f) below StrandWeaver (%.2f); upper bound violated", na, sw)
	}
	// Stalls: StrandWeaver must cut persist stalls versus Intel.
	if cl.StallReductionVsIntel <= 0 {
		t.Errorf("no stall reduction: %.2f", cl.StallReductionVsIntel)
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	pts, err := Fig9(ExpOptions{Threads: 8, OpsPerThread: 30, Benchmarks: []string{"hashmap"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig9Configs) {
		t.Fatalf("%d points", len(pts))
	}
	byCfg := map[[2]int]float64{}
	for _, p := range pts {
		byCfg[[2]int{p.Buffers, p.Entries}] = p.GeoSpeedup
	}
	// Paper shape: (1,1) is the weakest; (4,4) at least matches (2,2).
	if byCfg[[2]int{1, 1}] > byCfg[[2]int{4, 4}] {
		t.Errorf("(1,1)=%.2f outperforms (4,4)=%.2f", byCfg[[2]int{1, 1}], byCfg[[2]int{4, 4}])
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	pts, err := Fig10(ExpOptions{Threads: 4, OpsPerThread: 32}, []int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// Paper shape: speedup grows with operations per SFR.
	if pts[1].GeoSpeedup < pts[0].GeoSpeedup {
		t.Errorf("speedup fell with region size: %v", pts)
	}
}

func TestPrinters(t *testing.T) {
	g, err := RunGrid(ExpOptions{Threads: 2, OpsPerThread: 6, Benchmarks: []string{"queue"}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFig7(&sb, g)
	PrintFig8(&sb, g)
	PrintClaims(&sb, ComputeClaims(g))
	out := sb.String()
	for _, want := range []string{"Figure 7", "Figure 8", "strandweaver", "Headline claims", "queue"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q", want)
		}
	}
	rows, err := Table2(ExpOptions{Threads: 2, OpsPerThread: 6, Benchmarks: []string{"queue"}})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	PrintTable2(&sb, rows)
	if !strings.Contains(sb.String(), "Table II") {
		t.Error("Table II header missing")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Errorf("GeoMean(2,8) = %f", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %f", g)
	}
}

func TestCustomConfigPlumbs(t *testing.T) {
	cfg := config.Default()
	cfg.StrandBuffers = 1
	cfg.StrandBufferEntries = 1
	r1, err := Run(Spec{Benchmark: "nstore-wr", Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
		Threads: 4, OpsPerThread: 20, Cfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(Spec{Benchmark: "nstore-wr", Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
		Threads: 4, OpsPerThread: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles <= r4.Cycles {
		t.Errorf("1x1 strand buffers (%d cycles) not slower than 4x4 (%d)", r1.Cycles, r4.Cycles)
	}
}
