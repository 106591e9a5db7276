package main

import (
	"fmt"
	"time"

	"strandweaver/internal/config"
	"strandweaver/internal/faultinject"
	"strandweaver/internal/harness"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
	"strandweaver/internal/sweep"
	"strandweaver/internal/undolog"
	"strandweaver/internal/workloads"
)

// The torture workload is a fixed-order crash-cut sweep
// (harness.Torture, no litmus phase, serial). Its host time goes to
// machine Snapshot/Restore, copy-on-write memory images, fault
// injection, undo/redo recovery and the crash-during-recovery
// convergence check; the shared crash-prefix checkpoints dominate its
// memory.
var tortureWorkload = &workload{
	name: "torture",
	seed: 1,
	// Six passes per 20 s run put the tail sample inside the slowest
	// cell type (rbtree's prefix-building cells) rather than on the gap
	// below it.
	nominal: 3300 * time.Millisecond,
	// Set-up is building every subject's starting system, timed from
	// outside because the sweep builds its own inside one call.
	setup: func(sc scale, seed int64) error {
		for _, b := range sc.tortureBenchmarks {
			if _, _, _, err := buildTortureSystem(sc, seed, b, nil, 0); err != nil {
				return err
			}
		}
		return nil
	},
	setupReps: 15,
	pass:      torturePass,
	layers: func(sc scale, seed int64) (func(*recorder) (*passResult, error), *passResult, error) {
		// The sweep enters the program in one call, so the traced run
		// takes its counters from one untraced pass and times a replay of
		// the crash-cut pipeline on a deterministic sample of cuts.
		base, err := torturePass(sc, seed)
		if err != nil {
			return nil, nil, err
		}
		return func(rec *recorder) (*passResult, error) { return tortureReplay(sc, seed, rec) }, base, nil
	},
}

// tortureLimit bounds every torture run in simulated cycles.
const tortureLimit = 2_000_000_000

// tortureConvergeBudgets caps each crash-during-recovery sweep, as the
// harness's default does.
const tortureConvergeBudgets = 96

// Pinned torture output at seed 1, default scale.
const torturePinnedDigest uint64 = 0x36b168402a5ca44e

func tortureOptions(sc scale, seed int64, rep *sweep.Report) harness.TortureOptions {
	return harness.TortureOptions{
		Seed: uint64(seed), Benchmarks: sc.tortureBenchmarks,
		Threads: sc.tortureThreads, OpsPerThread: sc.tortureOps, Crashes: sc.tortureCrashes,
		SkipLitmus: true, Parallel: 1, Metrics: rep,
	}
}

// buildTortureSystem builds one torture subject's starting system the
// way the harness does: a StrandWeaver machine with the TXN runtime and
// the workload loaded.
func buildTortureSystem(sc scale, seed int64, bench string, rec *recorder, parent int) (*machine.System, workloads.Instance, []machine.Worker, error) {
	cfg := config.Default()
	cfg.Cores = sc.tortureThreads
	var sys *machine.System
	var err error
	rec.call("machine.New", parent, 0, func() { sys, err = machine.New(cfg, hwdesign.StrandWeaver) })
	if err != nil {
		return nil, nil, nil, err
	}
	var rt *langmodel.Runtime
	rec.call("langmodel.New", parent, 0, func() { rt = langmodel.New(sys, langmodel.TXN, sc.tortureThreads, langmodel.DefaultOptions()) })
	f, err := workloads.Find(bench)
	if err != nil {
		return nil, nil, nil, err
	}
	inst := f.New(workloads.Params{Threads: sc.tortureThreads, OpsPerThread: sc.tortureOps, Seed: seed})
	rec.call("workloads.Setup", parent, 0, func() { inst.Setup(sys, rt) })
	ws := make([]machine.Worker, sc.tortureThreads)
	for i := range ws {
		ws[i] = inst.Worker(i)
	}
	return sys, inst, ws, nil
}

// torturePass runs one sweep. Ops are the sweep's cells.
func torturePass(sc scale, seed int64) (*passResult, error) {
	rep := sweep.NewReport("torture")
	t0 := time.Now()
	tr, err := harness.Torture(tortureOptions(sc, seed, rep))
	wall := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("torture: %w", err)
	}

	p := &passResult{wall: wall, attempted: tr.Combos, counters: map[string]float64{}}
	for _, v := range tr.Violations {
		p.fail("torture: %s", v)
	}
	var cow mem.Stats
	var cpBytes, hits, misses uint64
	for _, c := range rep.Cells {
		p.ops = append(p.ops, time.Duration(c.WallNS))
		hits += c.CheckpointHits
		misses += c.CheckpointMisses
		if c.COW != nil {
			cow.Add(*c.COW)
			cpBytes += c.COW.CheckpointBytes
		}
	}
	if sc.pin {
		p.check(tr.ImageDigest == torturePinnedDigest, "torture image digest %016x, pinned %016x", tr.ImageDigest, torturePinnedDigest)
	}
	p.counters["mem.pages_frozen"] = float64(cow.PagesFrozen)
	p.counters["mem.cow_faults"] = float64(cow.COWFaults)
	p.counters["mem.restore_diverged"] = float64(cow.RestoreDiverged)
	p.counters["mem.checkpoint_mb"] = float64(cpBytes) / (1 << 20)
	if hits+misses > 0 {
		p.counters["harness.checkpoint_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	p.counters["sweep.worker_busy_frac"] = float64(rep.CellWallNS) / float64(rep.WallNS)
	p.summary = fmt.Sprintf("%d combos, image digest %016x, %d violations", tr.Combos, tr.ImageDigest, len(tr.Violations))
	return p, nil
}

// tortureReplay runs the crash-cut pipeline the sweep runs inside one
// call, layer by layer, on replayCuts evenly spaced cuts per benchmark
// x fault plan: a crash-free run to find the schedule length, a capture
// run snapshotting every cut, then per cut a restore, crash image,
// fingerprint, recovery, invariant check and convergence check.
func tortureReplay(sc scale, seed int64, rec *recorder) (*passResult, error) {
	p := &passResult{}
	t0 := time.Now()
	for _, b := range sc.tortureBenchmarks {
		for pi, plan := range faultinject.Presets(uint64(seed)) {
			if err := replayPrefix(sc, seed, b, pi, plan, rec, p); err != nil {
				return nil, err
			}
		}
	}
	p.wall = time.Since(t0)
	return p, nil
}

func replayPrefix(sc scale, seed int64, bench string, pi int, plan faultinject.Plan, rec *recorder, p *passResult) error {
	root := rec.start("bench.prefix", 0, 0)
	defer rec.end(root)

	sys, _, ws, err := buildTortureSystem(sc, seed, bench, rec, root)
	if err != nil {
		return err
	}
	faultinject.New(plan).Arm(sys)
	var end sim.Cycle
	rec.call("machine.Run", root, 0, func() { end, err = sys.Run(ws, tortureLimit) })
	if err != nil {
		return fmt.Errorf("torture replay %s plan %d crash-free: %w", bench, pi, err)
	}
	p.engine.AddEngine(sys.Eng.Stats())

	capture, _, ws, err := buildTortureSystem(sc, seed, bench, rec, root)
	if err != nil {
		return err
	}
	faultinject.New(plan).Arm(capture)
	n := sc.replayCuts
	cuts := make([]sim.Cycle, n)
	cps := make([]*machine.Checkpoint, n)
	run := rec.start("machine.Run", root, 0)
	for i := range cuts {
		i := i
		cuts[i] = sim.Cycle(uint64(end) * uint64(i+1) / uint64(n+1))
		if cuts[i] == 0 {
			cuts[i] = 1
		}
		capture.RunAt(cuts[i], func() { rec.call("machine.Snapshot", run, 0, func() { cps[i] = capture.Snapshot() }) })
	}
	capture.RunAt(cuts[n-1], capture.Abandon)
	_, _ = capture.Run(ws, tortureLimit) // abandoned at the last cut: the error is expected
	rec.end(run)
	p.engine.AddEngine(capture.Eng.Stats())

	warm, inst, _, err := buildTortureSystem(sc, seed, bench, rec, root)
	if err != nil {
		return err
	}
	recoverImg := func(im *mem.Image) error {
		_, err := undolog.Recover(im, sc.tortureThreads)
		return err
	}
	for i, cp := range cps {
		p.check(cp != nil, "torture replay %s plan %d: capture run ended before cut %d", bench, pi, i+1)
		if cp == nil {
			continue
		}
		cut := rec.start("bench.cut", root, 0)
		rec.call("machine.Restore", cut, 0, func() { warm.Restore(cp) })
		cutPlan := plan
		cutPlan.Seed += uint64(cuts[i]) * 0x9e3779b97f4a7c15 // decorrelate cuts, as the sweep does
		var crash, img *mem.Image
		rec.call("faultinject.CrashImage", cut, 0, func() { crash = faultinject.New(cutPlan).CrashImage(warm) })
		rec.call("mem.Fingerprint", cut, 0, func() { _ = crash.Fingerprint() })
		rec.call("mem.Clone", cut, 0, func() { img = crash.Clone() })
		var verr error
		rec.call("undolog.Recover", cut, 0, func() { verr = recoverImg(img) })
		if verr == nil {
			rec.call("workloads.Verify", cut, 0, func() { verr = inst.Verify(img) })
		}
		p.check(verr == nil, "torture replay %s plan %d cut@%d: %v", bench, pi, cuts[i], verr)
		var cerr error
		rec.call("faultinject.CheckConvergence", cut, 0, func() {
			_, cerr = faultinject.CheckConvergence(crash, recoverImg, tortureConvergeBudgets)
		})
		p.check(cerr == nil, "torture replay %s plan %d cut@%d convergence: %v", bench, pi, cuts[i], cerr)
		rec.end(cut)
	}
	return nil
}
