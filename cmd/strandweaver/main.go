// Command strandweaver regenerates the paper's evaluation artifacts
// (Table II, Figures 7-10), runs the Figure 2 litmus cross-validation,
// exercises crash-recovery, and runs the fault-injection torture
// harness, on the simulated machine.
//
// Usage:
//
//	strandweaver <experiment> [flags]
//
// Experiments: table2, fig7 (includes the headline-claims summary),
// fig8, fig9, fig10, experiments (the grid once, as fig7+claims+fig8),
// litmus, crash, torture, ablation, all. Sweep-backed commands accept
// -parallel/-metrics-out; see docs/DETERMINISM.md for why the
// results are byte-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	sw "strandweaver"
)

// options is the parsed, unvalidated flag set for one invocation.
type options struct {
	cmd          string
	threads      int
	ops          int
	controllers  int
	seed         int64
	benchmarks   []string
	designs      []sw.Design
	crashes      int
	intensity    float64
	maxBudgets   int
	tearAccepted bool
	skipLitmus   bool
	stride       uint64
	parallel     int
	serialCheck  bool
	metricsOut   string
	cpuProfile   string
	memProfile   string
	lintSeverity string
	lintJSON     bool
	relaxGate    bool

	fuzzSchedules int
	fuzzDuration  time.Duration
	fuzzTargets   []string
	fuzzMutant    string
	fuzzRepro     string
	fuzzMinimize  bool
	fuzzOut       string
}

var commands = []string{
	"table2", "fig7", "fig8", "fig9", "fig10", "experiments",
	"litmus", "lint", "relax", "crash", "torture", "fuzz", "ablation", "all",
}

// parseArgs parses a command line (without the program name) into
// options. Flag defaults are per-command: the torture sweep defaults to
// its own smaller per-run scale since it runs hundreds of combos.
func parseArgs(args []string, errw *os.File) (options, error) {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		return options{}, fmt.Errorf("missing experiment name (one of: %s)", strings.Join(commands, ", "))
	}
	o := options{cmd: args[0]}
	defThreads, defOps, defCrashes := 8, 250, 20
	if o.cmd == "torture" {
		defThreads, defOps, defCrashes = 2, 10, 12
	}
	fs := flag.NewFlagSet(o.cmd, flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.IntVar(&o.threads, "threads", defThreads, "worker threads (simulated cores)")
	fs.IntVar(&o.ops, "ops", defOps, "operations per thread")
	fs.IntVar(&o.controllers, "controllers", 1, "address-interleaved PM controllers per machine (power of two)")
	fs.Int64Var(&o.seed, "seed", 1, "workload and fault RNG seed")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset (default: all of Table II; torture: queue,hashmap,rbtree)")
	designList := fs.String("design", "", "comma-separated hardware-design subset for grid experiments (default: "+strings.Join(sw.DesignNames(), ",")+")")
	fs.IntVar(&o.crashes, "crashes", defCrashes, "crash points to inject (crash/torture experiments)")
	fs.Float64Var(&o.intensity, "intensity", 1.0, "fault-plan intensity multiplier (torture)")
	fs.IntVar(&o.maxBudgets, "budgets", 96, "max crash-during-recovery budget points per sweep (torture)")
	fs.BoolVar(&o.tearAccepted, "tear-accepted", false, "add the beyond-ADR plan that tears accepted writes (torture)")
	fs.BoolVar(&o.skipLitmus, "skip-litmus", false, "skip the litmus phase (torture)")
	fs.Uint64Var(&o.stride, "stride", 64, "litmus crash-sweep stride in cycles (torture)")
	fs.IntVar(&o.parallel, "parallel", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&o.serialCheck, "serial-check", false, "run experiments both parallel and serial and fail on any result mismatch")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write per-cell sweep metrics (JSON array) to this file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
	fs.StringVar(&o.lintSeverity, "severity", "error", "minimum finding severity for a non-zero exit (lint): info, warn, error")
	fs.BoolVar(&o.lintJSON, "json", false, "emit reports and relaxation metrics as JSON (lint, relax, fuzz)")
	fs.BoolVar(&o.relaxGate, "gate", false, "fail unless the optimizer rediscovers the strand undo recipe from the intel baseline (relax)")
	fs.IntVar(&o.fuzzSchedules, "schedules", 256, "fuzz schedule budget (0 = unbounded, requires -duration)")
	fs.DurationVar(&o.fuzzDuration, "duration", 0, "fuzz wall-clock bound, checked between batches (0 = schedule budget only)")
	targetList := fs.String("target", "", "comma-separated fuzz targets: undolog, redolog, or a benchmark name (default undolog,redolog)")
	fs.StringVar(&o.fuzzMutant, "mutate", "", "seeded mutant for fuzz conviction runs: no-data-flush")
	fs.StringVar(&o.fuzzRepro, "repro", "", "replay this repro file instead of searching (fuzz)")
	fs.BoolVar(&o.fuzzMinimize, "minimize", false, "with -repro: shrink the repro to its minimal form and print it (fuzz)")
	fs.StringVar(&o.fuzzOut, "out", "", "directory to write corpus and violation repro files (fuzz)")
	if err := fs.Parse(args[1:]); err != nil {
		return o, err
	}
	if *benchList != "" {
		o.benchmarks = strings.Split(*benchList, ",")
	}
	if *targetList != "" {
		o.fuzzTargets = strings.Split(*targetList, ",")
	}
	for _, name := range strings.Split(*designList, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		d, err := sw.ParseDesign(name)
		if err != nil {
			return o, err
		}
		o.designs = append(o.designs, d)
	}
	return o, nil
}

// validate rejects out-of-range flags and unknown names before any
// simulation starts, so a typo fails fast with a non-zero exit.
func validate(o options) error {
	known := false
	for _, c := range commands {
		known = known || o.cmd == c
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (valid: %s)", o.cmd, strings.Join(commands, ", "))
	}
	if o.threads <= 0 {
		return fmt.Errorf("-threads must be positive (got %d)", o.threads)
	}
	if o.threads > sw.MaxCores {
		return fmt.Errorf("-threads must be at most %d, the simulated machine's core limit (got %d)", sw.MaxCores, o.threads)
	}
	if o.ops <= 0 {
		return fmt.Errorf("-ops must be positive (got %d)", o.ops)
	}
	if o.controllers <= 0 || o.controllers&(o.controllers-1) != 0 {
		return fmt.Errorf("-controllers must be a positive power of two (got %d)", o.controllers)
	}
	if o.crashes <= 0 {
		return fmt.Errorf("-crashes must be positive (got %d)", o.crashes)
	}
	if o.seed < 0 {
		return fmt.Errorf("-seed must be non-negative (got %d)", o.seed)
	}
	if o.intensity <= 0 {
		return fmt.Errorf("-intensity must be positive (got %g)", o.intensity)
	}
	if o.maxBudgets < 0 {
		return fmt.Errorf("-budgets must be non-negative (got %d)", o.maxBudgets)
	}
	if o.parallel < 0 {
		return fmt.Errorf("-parallel must be non-negative (got %d)", o.parallel)
	}
	if o.serialCheck && o.cmd != "experiments" {
		return fmt.Errorf("-serial-check only applies to the experiments command")
	}
	if o.cmd == "lint" {
		if _, err := sw.ParseLintSeverity(o.lintSeverity); err != nil {
			return err
		}
	}
	if o.cmd == "fuzz" {
		if o.fuzzSchedules < 0 {
			return fmt.Errorf("-schedules must be non-negative (got %d)", o.fuzzSchedules)
		}
		if o.fuzzDuration < 0 {
			return fmt.Errorf("-duration must be non-negative (got %v)", o.fuzzDuration)
		}
		if o.fuzzSchedules == 0 && o.fuzzDuration == 0 && o.fuzzRepro == "" {
			return fmt.Errorf("-schedules 0 (unbounded) requires -duration")
		}
		if o.fuzzMinimize && o.fuzzRepro == "" {
			return fmt.Errorf("-minimize requires -repro FILE")
		}
		if o.fuzzMutant != "" && o.fuzzMutant != sw.FuzzMutantNoDataFlush {
			return fmt.Errorf("unknown mutant %q (valid: %s)", o.fuzzMutant, sw.FuzzMutantNoDataFlush)
		}
		valid := append([]string{sw.FuzzTargetUndolog, sw.FuzzTargetRedolog}, sw.BenchmarkNames()...)
		for _, tgt := range o.fuzzTargets {
			ok := false
			for _, v := range valid {
				ok = ok || tgt == v
			}
			if !ok {
				return fmt.Errorf("unknown fuzz target %q (valid: %s)", tgt, strings.Join(valid, ", "))
			}
		}
	}
	valid := sw.BenchmarkNames()
	for _, b := range o.benchmarks {
		ok := false
		for _, v := range valid {
			ok = ok || b == v
		}
		if !ok {
			return fmt.Errorf("unknown benchmark %q (valid: %s)", b, strings.Join(valid, ", "))
		}
	}
	return nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "strandweaver:", err)
		usage()
		os.Exit(2)
	}
	if err := validate(o); err != nil {
		fmt.Fprintln(os.Stderr, "strandweaver:", err)
		os.Exit(2)
	}
	opt := sw.ExpOptions{Threads: o.threads, OpsPerThread: o.ops, Seed: o.seed, Benchmarks: o.benchmarks, Designs: o.designs, Controllers: o.controllers, Parallel: o.parallel}

	if o.cpuProfile != "" {
		f, perr := os.Create(o.cpuProfile)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "strandweaver:", perr)
			os.Exit(1)
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			fmt.Fprintln(os.Stderr, "strandweaver:", perr)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	// Each sweep-backed command appends a per-cell metrics report here;
	// -metrics-out writes them as one JSON array after a clean run.
	var metrics []*sw.SweepReport
	collect := func(name string) *sw.SweepReport {
		if o.metricsOut == "" {
			return nil
		}
		rep := sw.NewSweepReport(name)
		metrics = append(metrics, rep)
		return rep
	}

	start := time.Now()
	switch o.cmd {
	case "table2":
		opt.Metrics = collect("table2")
		err = runTable2(opt)
	case "fig7":
		opt.Metrics = collect("fig7")
		err = runFig7(opt, true)
	case "fig8":
		opt.Metrics = collect("fig8")
		err = runFig8(opt)
	case "fig9":
		opt.Metrics = collect("fig9")
		err = runFig9(opt)
	case "fig10":
		opt.Metrics = collect("fig10")
		err = runFig10(opt)
	case "experiments":
		opt.Metrics = collect("experiments")
		err = runExperiments(opt, o.serialCheck)
	case "litmus":
		err = runLitmus()
	case "lint":
		err = runLint(o)
	case "relax":
		err = runRelax(o)
	case "crash":
		err = runCrash(opt, o.crashes)
	case "torture":
		err = runTorture(o, collect("torture"))
	case "fuzz":
		err = runFuzz(o, collect("fuzz"))
	case "ablation":
		opt.Metrics = collect("ablation")
		err = runAblation(opt)
	case "all":
		for _, f := range []func() error{
			func() error { opt.Metrics = collect("table2"); return runTable2(opt) },
			func() error { opt.Metrics = collect("experiments"); return runExperiments(opt, false) },
			func() error { opt.Metrics = collect("fig9"); return runFig9(opt) },
			func() error { opt.Metrics = collect("fig10"); return runFig10(opt) },
			runLitmus,
			func() error { return runCrash(opt, o.crashes) },
			func() error { opt.Metrics = collect("ablation"); return runAblation(opt) },
		} {
			if err = f(); err != nil {
				break
			}
			fmt.Println()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "strandweaver:", err)
		os.Exit(1)
	}
	if o.metricsOut != "" {
		if werr := writeMetrics(o.metricsOut, metrics); werr != nil {
			fmt.Fprintln(os.Stderr, "strandweaver:", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[sweep metrics written to %s]\n", o.metricsOut)
	}
	if o.memProfile != "" {
		if perr := writeHeapProfile(o.memProfile); perr != nil {
			fmt.Fprintln(os.Stderr, "strandweaver:", perr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[heap profile written to %s]\n", o.memProfile)
	}
	fmt.Fprintf(os.Stderr, "\n[%s completed in %v]\n", o.cmd, time.Since(start).Round(time.Millisecond))
}

// writeHeapProfile forces a GC (so the profile shows live retention,
// not garbage awaiting collection) and writes the heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the collected sweep reports as a JSON array.
func writeMetrics(path string, reps []*sw.SweepReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sw.WriteSweepReports(f, reps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runExperiments runs the speedup grid once and renders everything
// derived from it: the Figure 7 grid, the headline-claims summary, and
// the Figure 8 stall comparison. With serialCheck it runs the grid a
// second time serially and fails unless the results are identical.
func runExperiments(opt sw.ExpOptions, serialCheck bool) error {
	g, err := sw.RunGrid(opt)
	if err != nil {
		return err
	}
	sw.PrintFig7(os.Stdout, g)
	fmt.Println()
	sw.PrintClaims(os.Stdout, sw.ComputeClaims(g))
	fmt.Println()
	sw.PrintFig8(os.Stdout, g)
	if serialCheck {
		serialOpt := opt
		serialOpt.Parallel = 1
		serialOpt.Metrics = nil
		gs, err := sw.RunGrid(serialOpt)
		if err != nil {
			return fmt.Errorf("serial-check rerun: %w", err)
		}
		if !reflect.DeepEqual(g.Cells, gs.Cells) {
			return fmt.Errorf("serial-check: parallel grid differs from serial run")
		}
		fmt.Println("\nserial-check: parallel and serial grids are identical")
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: strandweaver <experiment> [flags]

experiments:
  table2   benchmark write intensity (CLWBs per 1000 cycles)
  fig7     speedup grid: 6 designs x 3 language models x 8 benchmarks
           (the paper's five plus an eADR upper bound), plus the
           paper's headline-claims summary
  fig8     CPU stalls enforcing persist order, relative to Intel x86
  fig9     sensitivity to strand-buffer-unit geometry
  fig10    speedup vs operations per synchronization-free region
  experiments
           the speedup grid once, rendered as Figure 7 + headline
           claims + Figure 8 (one grid run instead of two)
  litmus   Figure 2 litmus shapes: hardware vs formal model
  lint     static persist-order analysis of the litmus programs and
           every design's logging recipes (no simulation); exits
           non-zero on findings at or above -severity
  relax    search-based auto-relaxation: rewrite every design's
           logging recipes to minimal strand annotations, proving each
           step against the exact crash-cut oracle; -gate fails unless
           the strand undo recipe is rediscovered from the intel
           baseline
  crash    crash-injection + recovery + invariant verification sweep
  torture  fault-injection torture harness: torn persists, PM media
           faults, crash-during-recovery convergence
  fuzz     coverage-guided fault-schedule search over the recovery
           paths; violations are shrunk to minimal replayable repro
           files (exits non-zero when any are found)
  ablation design-choice ablations: undo vs redo logging, persist queue
           depth, HOPS buffer capacity, CLWB vs CLFLUSHOPT
  all      everything above

flags (see -h per experiment): -threads -ops -seed -benchmarks -design
                               -crashes -controllers N (power of two;
                               shards the PM persistence boundary
                               across N address-interleaved controllers)
sweep flags: -parallel N (0 = GOMAXPROCS, 1 = serial) -metrics-out FILE
             -serial-check (experiments only)
profiling:   -cpuprofile FILE -memprofile FILE (pprof format; see
             README "Running sweeps and profiling")
torture flags: -intensity -budgets -tear-accepted -skip-litmus -stride
lint flags:    -severity LEVEL (info, warn, error) -json
relax flags:   -gate -json
fuzz flags:    -schedules N -duration D -target LIST -mutate NAME
               -repro FILE [-minimize] -out DIR -json
`)
}

func runTorture(o options, metrics *sw.SweepReport) error {
	to := sw.TortureOptions{
		Seed:         uint64(o.seed),
		Intensity:    o.intensity,
		Benchmarks:   o.benchmarks,
		Threads:      o.threads,
		OpsPerThread: o.ops,
		Controllers:  o.controllers,
		Crashes:      o.crashes,
		MaxBudgets:   o.maxBudgets,
		TearAccepted: o.tearAccepted,
		SkipLitmus:   o.skipLitmus,
		LitmusStride: o.stride,
		Parallel:     o.parallel,
		Metrics:      metrics,
	}
	rep, err := sw.Torture(to)
	if err != nil {
		return err
	}
	sw.PrintTorture(os.Stdout, to, rep)
	if len(rep.Violations) > 0 {
		return fmt.Errorf("torture: %d invariant violations", len(rep.Violations))
	}
	return nil
}

func runTable2(opt sw.ExpOptions) error {
	rows, err := sw.Table2(opt)
	if err != nil {
		return err
	}
	sw.PrintTable2(os.Stdout, rows)
	return nil
}

func runFig7(opt sw.ExpOptions, claims bool) error {
	g, err := sw.RunGrid(opt)
	if err != nil {
		return err
	}
	sw.PrintFig7(os.Stdout, g)
	if claims {
		fmt.Println()
		sw.PrintClaims(os.Stdout, sw.ComputeClaims(g))
	}
	return nil
}

func runFig8(opt sw.ExpOptions) error {
	g, err := sw.RunGrid(opt)
	if err != nil {
		return err
	}
	sw.PrintFig8(os.Stdout, g)
	return nil
}

func runFig9(opt sw.ExpOptions) error {
	pts, err := sw.Fig9(opt)
	if err != nil {
		return err
	}
	sw.PrintFig9(os.Stdout, pts)
	return nil
}

func runFig10(opt sw.ExpOptions) error {
	pts, err := sw.Fig10(opt, nil)
	if err != nil {
		return err
	}
	sw.PrintFig10(os.Stdout, pts)
	return nil
}

func runLitmus() error {
	programs := []struct {
		name string
		p    sw.LitmusProgram
	}{
		{"fig2ab: ST A; PB; ST B; NS; ST C", sw.LitmusProgram{{sw.LSt(0, 1), sw.LPB(), sw.LSt(1, 1), sw.LNS(), sw.LSt(2, 1)}}},
		{"fig2cd: ST A; NS; ST B; JS; ST C", sw.LitmusProgram{{sw.LSt(0, 1), sw.LNS(), sw.LSt(1, 1), sw.LJS(), sw.LSt(2, 1)}}},
		{"fig2ef: ST A=1; NS; ST A=2; PB; ST B", sw.LitmusProgram{{sw.LSt(0, 1), sw.LNS(), sw.LSt(0, 2), sw.LPB(), sw.LSt(1, 1)}}},
		{"fig2gh: ST A; NS; LD A; PB; ST B", sw.LitmusProgram{{sw.LSt(0, 1), sw.LNS(), sw.LLd(0), sw.LPB(), sw.LSt(1, 1)}}},
		{"fig2ij: T0: ST A; NS; ST B || T1: ST B'; PB; ST C", sw.LitmusProgram{
			{sw.LSt(0, 1), sw.LNS(), sw.LSt(1, 1)},
			{sw.LSt(1, 2), sw.LPB(), sw.LSt(2, 1)},
		}},
	}
	fmt.Println("Figure 2 litmus cross-validation (simulated hardware vs formal PMO model)")
	for _, pr := range programs {
		res, err := sw.CheckLitmus(pr.p, 16)
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		allowed, err := sw.AllowedStates(pr.p)
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		fmt.Printf("  %-44s %4d crash points, %d observed states, all within the %d model-allowed states: OK\n",
			pr.name, res.CrashPoints, len(res.States), len(allowed))
	}
	return nil
}

func runAblation(opt sw.ExpOptions) error {
	lg, err := sw.LoggingAblation(opt, nil)
	if err != nil {
		return err
	}
	sw.PrintLoggingAblation(os.Stdout, lg)
	fmt.Println()
	qd, err := sw.PersistQueueDepthAblation(opt, nil)
	if err != nil {
		return err
	}
	sw.PrintQueueDepthAblation(os.Stdout, qd)
	fmt.Println()
	hb, err := sw.HOPSBufferAblation(opt, nil)
	if err != nil {
		return err
	}
	sw.PrintHOPSBufferAblation(os.Stdout, hb)
	fmt.Println()
	fi, err := sw.FlushInstructionAblation(opt)
	if err != nil {
		return err
	}
	sw.PrintFlushInstructionAblation(os.Stdout, fi)
	return nil
}

func runCrash(opt sw.ExpOptions, crashes int) error {
	opt = sw.ExpOptions{Threads: opt.Threads, OpsPerThread: opt.OpsPerThread, Seed: opt.Seed, Benchmarks: opt.Benchmarks, Controllers: opt.Controllers}
	if len(opt.Benchmarks) == 0 {
		opt.Benchmarks = sw.BenchmarkNames()
	}
	fmt.Println("Crash-injection sweep: run, crash, recover, verify structural invariants")
	// crashes cuts evenly spaced over the crash-free run.
	cuts := func(end sw.Cycle) []sw.Cycle {
		stride := end / sw.Cycle(crashes+1)
		if stride == 0 {
			stride = 1
		}
		at := make([]sw.Cycle, crashes)
		for i := range at {
			at[i] = sw.Cycle(i+1) * stride
		}
		return at
	}
	for _, b := range opt.Benchmarks {
		reps, err := sw.RunWithCrash(sw.Spec{Benchmark: b, Model: sw.SFR, Design: sw.StrandWeaver,
			Threads: opt.Threads, OpsPerThread: opt.OpsPerThread, Seed: opt.Seed, Controllers: opt.Controllers}, cuts)
		if err != nil {
			return fmt.Errorf("%s: %w", b, err)
		}
		rolled := 0
		for _, rep := range reps {
			rolled += len(rep.RolledBack)
		}
		fmt.Printf("  %-12s %3d crashes, %5d mutations rolled back, all invariants held\n", b, crashes, rolled)
	}
	return nil
}
