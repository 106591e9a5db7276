package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"strandweaver/internal/config"
	"strandweaver/internal/harness"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/sim"
	"strandweaver/internal/sweep"
	"strandweaver/internal/workloads"
)

// The grid workload is the Fig 7/8 evaluation grid at paper scale: every
// Table II benchmark x language model x design. Almost all of its host
// time is machine.System.Run, so it exercises the simulator's sim, cpu,
// cache, backend, strand and pmem layers and nothing of snapshots,
// recovery or the static analyzer. It is also where the paper's
// headline speedups are reproduced.
var gridWorkload = &workload{
	name:    "grid",
	seed:    1,
	nominal: 18 * time.Second,
	pass: func(sc scale, seed int64) (*passResult, error) {
		return gridPass(sc, seed, nil)
	},
	layers: func(sc scale, seed int64) (func(*recorder) (*passResult, error), *passResult, error) {
		return func(rec *recorder) (*passResult, error) { return gridPass(sc, seed, rec) }, nil, nil
	},
}

// gridWorkers is the grid's sweep pool: two workers, the host's CPUs.
const gridWorkers = 2

// Pinned grid outputs at seed 1, paper scale: the sha256 of the
// marshalled results in grid order (the golden_test.go digest, over the
// whole grid) and the four headline geomeans.
const gridPinnedDigest = "af405a1353e08f25926afe5d942dd36b03420c7ce55f522fbeef7c37d09eb3de"

var gridPinnedClaims = [4]float64{1.4736419073177207, 1.1177853281330217, 1.3553995619784718, 1.0872379987836582}

// paperClaims are the paper's headline geomeans: SW/Intel, SW/HOPS,
// NoPQ/Intel and SW/NoPQ.
var paperClaims = [4]float64{1.45, 1.20, 1.29, 1.13}

// gridSpecs enumerates the grid in harness.RunGrid's order, with every
// Spec field explicit so the results equal harness.Run's.
func gridSpecs(sc scale, seed int64) []harness.Spec {
	bs := sc.gridBenchmarks
	if bs == nil {
		bs = workloads.Names()
	}
	var specs []harness.Spec
	for _, b := range bs {
		for _, m := range langmodel.All {
			for _, d := range hwdesign.All {
				specs = append(specs, harness.Spec{Benchmark: b, Model: m, Design: d,
					Threads: sc.gridThreads, OpsPerThread: sc.gridOps, Seed: seed, CycleLimit: 2_000_000_000})
			}
		}
	}
	return specs
}

// runCell is harness.Run split into timed phases: the set-up
// (machine.New, langmodel.New, workload Setup) and the simulation
// (machine.System.Run), in harness.Run's order. It returns the same
// Result harness.Run does (bench_test.go holds it to that) and the
// set-up time. spec must have every defaulted field set.
func runCell(spec harness.Spec, rec *recorder, parent, lane int) (*harness.Result, time.Duration, error) {
	t0 := time.Now()
	cfg := config.Default()
	if spec.Cfg != nil {
		cfg = *spec.Cfg
	}
	if cfg.Cores < spec.Threads {
		cfg.Cores = spec.Threads
	}
	if spec.Controllers != 0 {
		cfg.PMControllers = spec.Controllers
	}
	var sys *machine.System
	var err error
	rec.call("machine.New", parent, lane, func() { sys, err = machine.New(cfg, spec.Design) })
	if err != nil {
		return nil, 0, err
	}
	opts := langmodel.DefaultOptions()
	if spec.RuntimeOpts != nil {
		opts = *spec.RuntimeOpts
	}
	var rt *langmodel.Runtime
	rec.call("langmodel.New", parent, lane, func() { rt = langmodel.New(sys, spec.Model, spec.Threads, opts) })
	f, err := workloads.Find(spec.Benchmark)
	if err != nil {
		return nil, 0, err
	}
	inst := f.New(workloads.Params{Threads: spec.Threads, OpsPerThread: spec.OpsPerThread, Seed: spec.Seed})
	rec.call("workloads.Setup", parent, lane, func() { inst.Setup(sys, rt) })
	ws := make([]machine.Worker, spec.Threads)
	for i := range ws {
		ws[i] = inst.Worker(i)
	}
	setup := time.Since(t0)

	var end sim.Cycle
	rec.call("machine.Run", parent, lane, func() { end, err = sys.Run(ws, spec.CycleLimit) })
	if err != nil {
		return nil, setup, fmt.Errorf("%s/%s/%s: %w", spec.Benchmark, spec.Model, spec.Design, err)
	}
	return newResult(spec, sys, uint64(end)), setup, nil
}

// newResult mirrors harness's unexported result constructor.
func newResult(spec harness.Spec, sys *machine.System, cycles uint64) *harness.Result {
	tot := sys.TotalStats()
	r := &harness.Result{
		Spec:       spec,
		Cycles:     cycles,
		TotalOps:   uint64(spec.Threads * spec.OpsPerThread),
		CoreTotals: tot,
		Controller: sys.PM.Stats(),
		Engine:     sys.Eng.Stats(),
	}
	if sys.PM.NumControllers() > 1 {
		r.PerController = sys.PM.PerController()
	}
	if cycles > 0 {
		r.CKC = float64(tot.CLWBs) / (float64(cycles) / 1000)
		r.StallFrac = float64(tot.PersistStallCycles()) / (float64(cycles) * float64(spec.Threads))
		r.OpsPerMCycle = float64(r.TotalOps) / (float64(cycles) / 1e6)
	}
	return r
}

// gridPass runs the grid on the sweep engine with gridWorkers workers.
// Ops are grid cells, timed by the sweep's own per-cell metrics; set-up
// is the summed set-up phase of every cell.
func gridPass(sc scale, seed int64, rec *recorder) (*passResult, error) {
	specs := gridSpecs(sc, seed)
	var mu sync.Mutex
	var setup time.Duration
	lanes := make(chan int, gridWorkers)
	for i := 0; i < gridWorkers; i++ {
		lanes <- i
	}
	cells := make([]sweep.Cell[*harness.Result], len(specs))
	for i, spec := range specs {
		spec := spec
		cells[i] = sweep.Cell[*harness.Result]{
			Key: fmt.Sprintf("%s/%s/%s", spec.Benchmark, spec.Model, spec.Design),
			Run: func(m *sweep.CellMetrics) (*harness.Result, error) {
				lane := <-lanes
				defer func() { lanes <- lane }()
				id := rec.start("bench.cell", 0, lane)
				defer rec.end(id)
				r, s, err := runCell(spec, rec, id, lane)
				mu.Lock()
				setup += s
				mu.Unlock()
				return r, err
			},
		}
	}
	rep := sweep.NewReport("grid")
	t0 := time.Now()
	results, err := sweep.Run(sweep.Options{Parallel: gridWorkers, KeepGoing: true, Report: rep}, cells)
	wall := time.Since(t0)

	p := &passResult{wall: wall, setup: []time.Duration{setup}, counters: map[string]float64{}}
	// Cell failures are counted below from the report; anything else
	// means the sweep itself failed.
	var cellErrs *sweep.CellErrors
	if err != nil && !errors.As(err, &cellErrs) {
		return nil, err
	}
	for _, c := range rep.Cells {
		p.ops = append(p.ops, time.Duration(c.WallNS))
		p.check(c.Err == "", "grid cell %s: %s", c.Key, c.Err)
	}
	p.counters["sweep.worker_busy_frac"] = float64(rep.CellWallNS) / (float64(rep.WallNS) * gridWorkers)
	if len(p.failures) > 0 {
		return p, nil
	}
	for _, r := range results {
		p.engine.AddEngine(r.Engine)
	}

	claims := gridClaims(results)
	errPct := claimsErrPct(claims)
	p.counters["model.claims_err_pct"] = errPct
	addSimulatedCounters(p.counters, results)
	digest := resultsDigest(results)
	if sc.pin {
		p.check(digest == gridPinnedDigest, "grid result digest %s, pinned %s", digest, gridPinnedDigest)
		p.check(claims == gridPinnedClaims, "grid claims %v, pinned %v", claims, gridPinnedClaims)
	}
	p.summary = fmt.Sprintf("digest %.16s, claims %.4f/%.4f/%.4f/%.4f (err %.2f%%)",
		digest, claims[0], claims[1], claims[2], claims[3], errPct)
	return p, nil
}

// resultsDigest is the sha256 of the marshalled results, in grid order.
func resultsDigest(results []*harness.Result) string {
	b, err := json.Marshal(results)
	if err != nil {
		panic(err) // Result is plain data; marshalling cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// gridClaims folds the results into a harness.Grid the way
// harness.RunGrid does (speedups and stall ratios over Intel x86 per
// benchmark x model) and returns harness.ComputeClaims' four headline
// geomeans.
func gridClaims(results []*harness.Result) [4]float64 {
	g := &harness.Grid{}
	nd := len(hwdesign.All)
	for row := 0; row < len(results); row += nd {
		var intel *harness.Result
		for j, d := range hwdesign.All {
			if d == hwdesign.IntelX86 {
				intel = results[row+j]
			}
		}
		for j, d := range hwdesign.All {
			r := results[row+j]
			c := &harness.Cell{Benchmark: r.Spec.Benchmark, Model: r.Spec.Model, Design: d, Result: r}
			if intel.Cycles > 0 && r.Cycles > 0 {
				c.Speedup = float64(intel.Cycles) / float64(r.Cycles)
				if ip := intel.CoreTotals.PersistStallCycles(); ip > 0 {
					c.StallRatio = float64(r.CoreTotals.PersistStallCycles()) / float64(ip)
				}
			}
			g.Cells = append(g.Cells, c)
		}
	}
	cl := harness.ComputeClaims(g)
	return [4]float64{cl.SWvsIntelGeo, cl.SWvsHOPSGeo, cl.NoPQvsIntelGeo, cl.SWvsNoPQGeo}
}

// claimsErrPct is the mean |measured/paper - 1| over the headline
// geomeans, in percent.
func claimsErrPct(claims [4]float64) float64 {
	var sum float64
	for i, c := range claims {
		sum += math.Abs(c/paperClaims[i] - 1)
	}
	return 100 * sum / float64(len(claims))
}

// addSimulatedCounters sums the grid's simulated persist-path
// statistics per design.
func addSimulatedCounters(dst map[string]float64, results []*harness.Result) {
	type acc struct{ fence, full, persist, coreCycles, qfull, pending, depth float64 }
	per := map[hwdesign.Design]*acc{}
	for _, r := range results {
		a := per[r.Spec.Design]
		if a == nil {
			a = &acc{}
			per[r.Spec.Design] = a
		}
		a.fence += float64(r.CoreTotals.StallFenceCycles)
		a.full += float64(r.CoreTotals.StallQueueFullCycles)
		a.persist += float64(r.CoreTotals.PersistStallCycles())
		a.coreCycles += float64(r.Cycles) * float64(r.Spec.Threads)
		a.qfull += float64(r.Controller.WriteQueueFullEvents)
		a.pending += float64(r.Controller.PendingStallCycles)
		a.depth = math.Max(a.depth, float64(r.Controller.MaxWriteQueueDepth))
	}
	for d, a := range per {
		dst["cpu.stall_fence_cycles."+d.String()] = a.fence
		dst["cpu.stall_queue_full_cycles."+d.String()] = a.full
		if a.coreCycles > 0 {
			dst["cpu.persist_stall_frac."+d.String()] = a.persist / a.coreCycles
		}
		dst["pmem.write_queue_full_events."+d.String()] = a.qfull
		dst["pmem.pending_stall_cycles."+d.String()] = a.pending
		dst["pmem.max_write_queue_depth."+d.String()] = a.depth
	}
}
