package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/harness"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// smokeScale shrinks every workload to a fraction of a second.
var smokeScale = scale{
	gridThreads: 2, gridOps: 10, gridBenchmarks: []string{"queue", "arrayswap"},
	tortureThreads: 2, tortureOps: 10, tortureCrashes: 3, tortureBenchmarks: []string{"queue"},
	fuzzSchedules: 48,
	relaxPairs:    2,
	replayCuts:    2, replayExecs: 8,
}

// The phase-timed cell runner must return exactly what harness.Run
// returns, or the grid measures something other than the program.
func TestRunCellMatchesHarnessRun(t *testing.T) {
	cfg := config.Default()
	cfg.StrandBuffers = 2
	specs := []harness.Spec{
		{Benchmark: "queue", Model: langmodel.TXN, Design: hwdesign.StrandWeaver},
		{Benchmark: "hashmap", Model: langmodel.ATLAS, Design: hwdesign.IntelX86},
		{Benchmark: "tpcc", Model: langmodel.SFR, Design: hwdesign.HOPS},
		{Benchmark: "nstore-wr", Model: langmodel.TXN, Design: hwdesign.EADR, Controllers: 2},
		{Benchmark: "rbtree", Model: langmodel.SFR, Design: hwdesign.NoPersistQueue, Cfg: &cfg},
	}
	for _, spec := range specs {
		spec.Threads, spec.OpsPerThread, spec.Seed, spec.CycleLimit = 2, 15, 3, 2_000_000_000
		want, err := harness.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := runCell(spec, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s/%s: runCell result differs from harness.Run", spec.Benchmark, spec.Model, spec.Design)
		}
	}
}

// The grid's claims must be harness.RunGrid's claims.
func TestGridClaimsMatchRunGrid(t *testing.T) {
	sc := smokeScale
	p, err := gridPass(sc, 2, nil)
	if err != nil || len(p.failures) > 0 {
		t.Fatalf("grid pass: %v %v", err, p.failures)
	}
	g, err := harness.RunGrid(harness.ExpOptions{Threads: sc.gridThreads, OpsPerThread: sc.gridOps, Seed: 2,
		Benchmarks: sc.gridBenchmarks, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl := harness.ComputeClaims(g)
	want := claimsErrPct([4]float64{cl.SWvsIntelGeo, cl.SWvsHOPSGeo, cl.NoPQvsIntelGeo, cl.SWvsNoPQGeo})
	if got := p.counters["model.claims_err_pct"]; got != want {
		t.Errorf("claims error %v, harness.RunGrid gives %v", got, want)
	}
}

func readRepoBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bf := readRepoBenchmark(t)
	var e2e, layer []metricSpec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark reports %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(layer, perLayerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerMetrics()")
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range allWorkloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %s at %d", names, w.name, i)
		}
	}
}

// Every workload, at smoke scale, reports every metric BENCHMARK.json
// names with its unit, with no failed output, untraced and traced.
func TestSmokeRunsEmitEveryMetric(t *testing.T) {
	bf := readRepoBenchmark(t)
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measureRun(w, smokeScale, w.seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("untraced: failed %d of %d", res.Failed, res.Attempted)
			}
			for _, m := range bf.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("untraced: metric %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			dir := t.TempDir()
			res, err = traceRun(w, smokeScale, w.seed, dir)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("traced: failed %d of %d", res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced: %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(bf.PerLayer))
			}
			for _, m := range bf.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("traced: metric %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			b, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, %v", len(tr.TraceEvents), err)
			}
		})
	}
}

// Self time is span time minus the time its children cover, so the
// self times of a properly nested trace add up to its covered time.
func TestLayerTableSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", id: 1, start: 0, stop: 100},
		{name: "a", id: 2, parent: 1, start: 10, stop: 40},
		{name: "b", id: 3, parent: 2, start: 15, stop: 25},
		{name: "a", id: 4, parent: 1, start: 50, stop: 60},
	}
	self := map[string]int64{}
	for _, r := range layerTable(spans) {
		self[r.name] = int64(r.self)
	}
	want := map[string]int64{"root": 60, "a": 30, "b": 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{2, 1}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles(1, 2) = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	runs := func(vals ...float64) suiteMetric {
		q := quartiles(vals)
		return suiteMetric{Better: "lower", Bound: 0.1, Q1: q[0], Median: median(vals), Q3: q[2], Values: vals}
	}
	base := runs(9.9, 10, 10.1)
	for _, c := range []struct {
		cand suiteMetric
		want string
	}{
		{runs(9.9, 10.05, 10.2), "within"},
		{runs(11.9, 12, 12.1), "worse"},
		{runs(7.9, 8, 8.1), "better"},
		{runs(7, 10.5, 13), "unresolved"},
		{runs(4, 5, 6), "better"}, // wide, but every run is ahead
	} {
		if got := verdict(base, c.cand); got != c.want {
			t.Errorf("verdict(%v vs %v) = %s, want %s", base.Values, c.cand.Values, got, c.want)
		}
	}
	higher := base
	higher.Better = "higher"
	if got := verdict(higher, runs(7.9, 8, 8.1)); got != "worse" {
		t.Errorf("a higher-is-better metric that fell 20%%: %s, want worse", got)
	}
}

var sink *mem.Image

// The hot paths the event core and the copy-on-write images made
// allocation-free stay allocation-free, measured from outside their
// packages.
func TestHotPathAllocs(t *testing.T) {
	e := sim.NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(sim.Cycle(i%64+1), fn)
	}
	e.Run(0)
	heap := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(sim.Cycle(i%64+1), fn)
		}
		e.Run(0)
	})
	ring := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(0, fn)
		}
		e.Run(0)
	})

	im := mem.NewImage()
	a := mem.PMBase + 128
	im.Write64(a, 1)
	rw := testing.AllocsPerRun(100, func() { im.Write64(a, im.Read64(a)+1) })

	m := touchedMachine(256)
	s := m.Snapshot()
	restore := testing.AllocsPerRun(100, func() { m.Restore(s) })

	for name, got := range map[string]float64{"sim Schedule (heap)": heap, "sim Schedule(0) (ring)": ring,
		"mem Read64/Write64": rw, "mem Machine.Restore (undiverged)": restore} {
		if got != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", name, got)
		}
	}

	// Freeze allocates the frozen view's page table, never a page: its
	// count must not grow with the image's footprint.
	freeze := func(pages int) float64 {
		m := touchedMachine(pages)
		return testing.AllocsPerRun(20, func() { sink = m.Volatile.Freeze() })
	}
	if small, large := freeze(8), freeze(256); large > small+8 {
		t.Errorf("Freeze allocs grow with footprint: %.0f at 8 pages, %.0f at 256", small, large)
	}
}

func touchedMachine(pages int) *mem.Machine {
	m := mem.NewMachine()
	for p := 0; p < pages; p++ {
		m.Volatile.Write64(mem.Addr(p)*mem.PageBytes, 1)
		m.Persistent.Write64(mem.PMBase+mem.Addr(p)*mem.PageBytes, 1)
	}
	return m
}
