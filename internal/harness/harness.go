// Package harness runs benchmark × language-model × hardware-design
// experiments on the simulator and regenerates the paper's tables and
// figures (Table II, Figures 7-10).
package harness

import (
	"fmt"

	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/crashcut"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
	"strandweaver/internal/undolog"
	"strandweaver/internal/workloads"
)

// Spec configures one measured run.
type Spec struct {
	Benchmark string
	Model     langmodel.Model
	Design    hwdesign.Design
	// Threads defaults to 8 (the paper's core count); OpsPerThread
	// defaults to 250.
	Threads      int
	OpsPerThread int
	Seed         int64
	// Controllers overrides config.PMControllers, the number of
	// address-interleaved PM controllers the persistence boundary is
	// sharded across; 0 keeps the configuration's value (one controller
	// by default, and omitted from JSON so existing result digests are
	// untouched).
	Controllers int `json:",omitempty"`
	// Cfg overrides the machine configuration; zero means Table I
	// defaults.
	Cfg *config.Config
	// RuntimeOpts overrides language-runtime tuning; zero means
	// defaults.
	RuntimeOpts *langmodel.Options
	// CycleLimit aborts runaway simulations (0 = 2e9 cycles).
	CycleLimit sim.Cycle
}

func (s Spec) withDefaults() Spec {
	if s.Threads == 0 {
		s.Threads = 8
	}
	if s.OpsPerThread == 0 {
		s.OpsPerThread = 250
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.CycleLimit == 0 {
		s.CycleLimit = 2_000_000_000
	}
	return s
}

// Result reports one run's measurements.
type Result struct {
	Spec       Spec
	Cycles     uint64
	TotalOps   uint64
	CoreTotals cpu.Stats
	Controller pmem.Stats
	// PerController holds each PM controller's statistics in controller
	// index order. Populated only on multi-controller machines — nil at
	// one controller, keeping single-controller result digests
	// byte-identical to the pre-topology format.
	PerController []pmem.Stats `json:",omitempty"`
	// CKC is CLWBs issued per thousand CPU cycles (Table II's
	// write-intensity metric).
	CKC float64
	// StallFrac is the fraction of aggregate core cycles spent stalled
	// on persist ordering (Figure 8's metric).
	StallFrac float64
	// OpsPerMCycle is throughput in operations per million cycles.
	OpsPerMCycle float64
	// Engine holds the event-core counters for the run (events, fast-path
	// and freelist hits, coroutine switches). Excluded from JSON so the
	// golden result digests — sha256 over the marshalled Result — stay
	// byte-identical across engine-internals changes; the counters are
	// still deterministic and reach -metrics-out via sweep.CellMetrics.
	Engine sim.Stats `json:"-"`
}

// build constructs the spec's system with the workload set up on it,
// returning the workload instance (for invariant checks) and one
// worker per thread.
func build(spec Spec) (*machine.System, workloads.Instance, []machine.Worker, error) {
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
	sys, err := machine.New(cfg, spec.Design)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := langmodel.DefaultOptions()
	if spec.RuntimeOpts != nil {
		opts = *spec.RuntimeOpts
	}
	f, err := workloads.Find(spec.Benchmark)
	if err != nil {
		return nil, nil, nil, err
	}
	inst := f.New(workloads.Params{Threads: spec.Threads, OpsPerThread: spec.OpsPerThread, Seed: spec.Seed})
	return sys, inst, workloads.Prepare(sys, inst, spec.Model, opts, spec.Threads), nil
}

// Run executes one spec and returns its measurements.
func Run(spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	sys, _, ws, err := build(spec)
	if err != nil {
		return nil, err
	}
	end, err := sys.Run(ws, spec.CycleLimit)
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s/%s: %w", spec.Benchmark, spec.Model, spec.Design, err)
	}
	return newResult(spec, sys, uint64(end)), nil
}

func newResult(spec Spec, sys *machine.System, cycles uint64) *Result {
	tot := sys.TotalStats()
	r := &Result{
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

// RunWithCrash crashes the spec's run at each cycle cuts places over
// its crash-free run of end cycles (a cut at end+1 crashes the drained
// final state), runs recovery on each crash image, and verifies the
// workload's structural invariants. It is one crashcut request: the
// crash-free run, which records the PM log, and one replay of that log
// to every cut, with every cut's crash image read from its checkpoint.
// It returns the recovery reports in cut order, stopping at the first
// failure.
func RunWithCrash(spec Spec, cuts func(end sim.Cycle) []sim.Cycle) ([]*undolog.Report, error) {
	spec = spec.withDefaults()
	name := fmt.Sprintf("%s/%s/%s", spec.Benchmark, spec.Model, spec.Design)
	// The instance Verify checks against: the discovery run's, the only
	// build the fresh cache makes (Verify reads only the layout Setup
	// fixes). The cache is this call's alone, so its one target's key
	// need only name the spec.
	var inst workloads.Instance
	pre, err := crashcut.NewCache().Get(crashcut.Request{
		Target: crashcut.Target{
			Key:   "run/" + name,
			Limit: spec.CycleLimit,
			Build: func() (*machine.System, []machine.Worker, error) {
				s, in, ws, err := build(spec)
				inst = in
				return s, ws, err
			},
		},
		Cuts: cuts,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", name, err)
	}
	reps := make([]*undolog.Report, 0, len(pre.Cuts))
	for _, cut := range pre.Cuts {
		img := cut.CP.Image.Clone()
		rep, err := undolog.Recover(img, spec.Threads)
		reps = append(reps, rep)
		if err != nil {
			return reps, fmt.Errorf("harness: crash at %d: recovery failed: %w", cut.CP.At, err)
		}
		if err := inst.Verify(img); err != nil {
			return reps, fmt.Errorf("harness: crash at %d: %w", cut.CP.At, err)
		}
	}
	return reps, nil
}
