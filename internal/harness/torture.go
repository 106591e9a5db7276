package harness

import (
	"fmt"
	"io"

	"strandweaver/internal/crashcut"
	"strandweaver/internal/faultinject"
	"strandweaver/internal/litmus"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
	"strandweaver/internal/sweep"
)

// The torture driver is the crash-recovery torture harness: it sweeps
// crash cycles x fault plans (line-atomic drops, torn persists, media
// faults) across litmus programs, undo-logged persistent data
// structures, and the redo log, recovering every crash image and
// checking structural invariants; a subset of combos additionally
// sweeps crash-during-recovery write budgets and asserts recovery
// converges when interrupted and re-run. Everything is seeded: the same
// options reproduce byte-identical crash images (see ImageDigest) and
// an identical report.
//
// The sweep's units of work are independent simulations, so Torture
// runs them on the parallel sweep engine (internal/sweep): each cell
// builds its own machines and derives its own fault seeds, results are
// re-collected in enumeration order, and the report — including the
// order-sensitive ImageDigest fold and the every-Nth-combo convergence
// schedule, which is computed from each combo's global index rather
// than from a shared counter — is byte-identical at any worker count.

// TortureOptions configures a torture sweep.
type TortureOptions struct {
	// Seed drives every fault decision. Same options, same report.
	Seed uint64
	// Intensity scales the preset plans' tear and media-fault
	// probabilities (1.0 = presets as-is). Clamped to keep
	// probabilities in [0, 1].
	Intensity float64
	// Benchmarks are the pds workloads to torture (default: queue,
	// hashmap, rbtree).
	Benchmarks []string
	// Threads and OpsPerThread size each workload run (defaults 2, 10).
	Threads      int
	OpsPerThread int
	// Controllers is the number of address-interleaved PM controllers
	// each tortured machine shards the persistence boundary across (0 =
	// the configuration default, one controller).
	Controllers int
	// Crashes is the number of crash cycles per (benchmark, plan)
	// combination (default 12), evenly spaced over the crash-free run.
	Crashes int
	// ConvergeEvery runs the crash-during-recovery budget sweep on
	// every Nth combo (default 3; 1 = every combo).
	ConvergeEvery int
	// MaxBudgets caps each budget sweep's points (0 means the default
	// of 96). A sweep that hits the cap is reported, not hidden.
	MaxBudgets int
	// TearAccepted adds a beyond-ADR plan that tears accepted writes.
	// Such combos violate the hardware contract by construction, so
	// their invariant failures are counted separately, not as
	// violations.
	TearAccepted bool
	// SkipLitmus drops the litmus phase (for quick runs).
	SkipLitmus bool
	// LitmusStride is the litmus crash-sweep stride (default 64).
	LitmusStride uint64
	// Parallel bounds the sweep engine's worker pool (0 = GOMAXPROCS,
	// 1 = serial). The report is byte-identical for every value.
	Parallel int
	// Metrics, when non-nil, receives per-cell wall-time and simulator
	// metrics. Observability only, never part of the report.
	Metrics *sweep.Report
}

func (o TortureOptions) withDefaults() TortureOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Intensity == 0 {
		o.Intensity = 1
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"queue", "hashmap", "rbtree"}
	}
	if o.Threads == 0 {
		o.Threads = 2
	}
	if o.OpsPerThread == 0 {
		o.OpsPerThread = 10
	}
	if o.Crashes == 0 {
		o.Crashes = 12
	}
	if o.ConvergeEvery == 0 {
		o.ConvergeEvery = 3
	}
	if o.MaxBudgets == 0 {
		o.MaxBudgets = 96
	}
	if o.LitmusStride == 0 {
		o.LitmusStride = 64
	}
	return o
}

// plans derives the sweep's fault plans from the options.
func (o TortureOptions) plans() []faultinject.Plan {
	ps := faultinject.Presets(o.Seed)
	clamp := func(p float64) float64 {
		if p > 1 {
			return 1
		}
		return p
	}
	for i := range ps {
		ps[i].DropProb = clamp(ps[i].DropProb * o.Intensity)
		ps[i].MediaFaultProb = clamp(ps[i].MediaFaultProb * o.Intensity)
		ps[i].MediaDelayProb = clamp(ps[i].MediaDelayProb * o.Intensity)
	}
	if o.TearAccepted {
		ps = append(ps, faultinject.Plan{
			Seed: o.Seed + 3, TornPersists: true, DropProb: clamp(0.5 * o.Intensity),
			TearAccepted: true,
		})
	}
	return ps
}

// TortureReport summarises a sweep.
type TortureReport struct {
	// Seed is the sweep's root seed; Plans the number of fault plans.
	Seed  uint64
	Plans int

	// Combos counts (crash cycle x fault plan) runs across the workload
	// and redolog phases.
	Combos int
	// Violations lists invariant or recovery failures (empty on a
	// healthy model).
	Violations []string

	// TornImages counts crash images with at least one torn line;
	// TornRepaired counts those that recovery repaired (verified OK).
	TornImages   int
	TornRepaired int
	// TornLogEntries totals log entries discarded by recovery checksum
	// scrubbing (undo + redo).
	TornLogEntries int
	// RolledBack and Replayed total recovery actions across combos.
	RolledBack int
	Replayed   int

	// TornLines and DroppedLines total injected boundary-write faults;
	// MediaFaults and MediaDelays total injected media faults.
	TornLines, DroppedLines  uint64
	MediaFaults, MediaDelays uint64
	// BeyondADR counts TearAccepted combos whose invariants broke —
	// expected, the mode violates the hardware contract.
	BeyondADR int

	// UndoBudgets/UndoCuts and RedoBudgets/RedoCuts count the
	// crash-during-recovery convergence sweeps' budget points tried and
	// power cuts observed, per recovery engine.
	UndoBudgets, UndoCuts int
	RedoBudgets, RedoCuts int
	// BudgetSweepsCapped counts sweeps that hit MaxBudgets before the
	// budget covered a whole recovery pass.
	BudgetSweepsCapped int

	// MaxPendingArrivals, PendingStallCycles and MediaRetriesExhausted
	// fold the controller overflow/fault stats observed across combos.
	MaxPendingArrivals    int
	PendingStallCycles    uint64
	MediaRetriesExhausted uint64

	// LitmusPrograms and LitmusCrashPoints summarise the litmus phase.
	LitmusPrograms    int
	LitmusCrashPoints int

	// ImageDigest folds every crash image's fingerprint in sweep order;
	// equal digests mean byte-identical images.
	ImageDigest uint64
}

// litmusOutcome is one litmus cell's result.
type litmusOutcome struct {
	crashPoints int
	violation   string
}

// convOutcome is one combo's crash-during-recovery budget sweep.
type convOutcome struct {
	budgets, cuts int
	violation     string
	capped        bool
}

// comboOutcome is one (crash cycle x fault plan) run's contribution to
// the report, produced inside a sweep cell and folded in sweep order.
type comboOutcome struct {
	fingerprint uint64
	fault       faultinject.Stats
	ctrl        pmem.Stats
	torn        bool
	// violation is empty when recovery and invariants passed; beyondADR
	// attributes a failure to the contract-violating TearAccepted plan.
	violation string
	beyondADR bool
	// tornDiscarded and actions summarise the recovery pass (log
	// entries scrubbed; mutations rolled back or transactions replayed).
	tornDiscarded int
	actions       int
	conv          *convOutcome
}

// tortureOutcome is the sum type a torture sweep cell returns: exactly
// one of litmus (a litmus cell) or combos (a workload or redolog cell)
// is set.
type tortureOutcome struct {
	litmus *litmusOutcome
	combos []comboOutcome
	redo   bool
}

// tortureCell pairs a sweep cell with the fold that merges its outcome
// into the report. Cells run in any order; folds run in cell order, so
// the report is independent of scheduling.
type tortureCell struct {
	cell sweep.Cell[*tortureOutcome]
	fold func(rep *TortureReport, out *tortureOutcome)
}

// validate rejects negative sizes and rates up front, naming the field.
func (o TortureOptions) validate() error {
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"Crashes", float64(o.Crashes)},
		{"MaxBudgets", float64(o.MaxBudgets)},
		{"ConvergeEvery", float64(o.ConvergeEvery)},
		{"Threads", float64(o.Threads)},
		{"OpsPerThread", float64(o.OpsPerThread)},
		{"Intensity", o.Intensity},
	} {
		if f.val < 0 {
			return fmt.Errorf("harness: torture %s must be non-negative (got %v)", f.name, f.val)
		}
	}
	return nil
}

// Torture runs the full sweep.
func Torture(o TortureOptions) (*TortureReport, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	plans := o.plans()
	rep := &TortureReport{Seed: o.Seed, Plans: len(plans)}

	var tcells []tortureCell
	if !o.SkipLitmus {
		tcells = append(tcells, litmusCells(o, plans, rep)...)
	}
	// Workload and redolog combos are numbered globally in enumeration
	// order; the every-Nth-combo convergence schedule keys off that
	// number, so each cell can decide its own convergence sweeps
	// without a shared counter. The crash-cut cache shares crash-prefix
	// checkpoints across cells whose plans make the same run (all
	// media-free plans of a subject), and serves a subject's media plan
	// from its media-free run's log; it is the one sanctioned piece of
	// cross-cell state — a pure memoisation whose entries are identical
	// no matter which cell builds them, so results stay byte-identical
	// at any worker count (docs/SNAPSHOT.md).
	cache := crashcut.NewCache()
	subjects := make([]subject, 0, len(o.Benchmarks)+1)
	for _, b := range o.Benchmarks {
		subjects = append(subjects, workloadSubject(o, b))
	}
	subjects = append(subjects, redologSubject(o))
	for si, s := range subjects {
		for pi, plan := range plans {
			tcells = append(tcells, cutCell(o, cache, s, pi, plan, (si*len(plans)+pi)*o.Crashes))
		}
	}

	cells := make([]sweep.Cell[*tortureOutcome], len(tcells))
	for i, tc := range tcells {
		cells[i] = tc.cell
	}
	results, err := sweep.Run(sweep.Options{Parallel: o.Parallel, Report: o.Metrics}, cells)
	if err != nil {
		return rep, err
	}
	for i, out := range results {
		tcells[i].fold(rep, out)
	}
	return rep, nil
}

// litmusCells cross-validates fault-laden crash states against the
// formal model for every standard litmus shape, one cell per
// (program, plan) pair. Litmus programs are counted up front (the
// count does not depend on outcomes).
func litmusCells(o TortureOptions, plans []faultinject.Plan, rep *TortureReport) []tortureCell {
	progs := litmus.StandardPrograms()
	names := litmus.StandardProgramNames()
	rep.LitmusPrograms = len(names)
	var tcells []tortureCell
	for _, name := range names {
		p := progs[name]
		for pi, plan := range plans {
			if plan.TearAccepted {
				// Litmus states have no redundancy to repair a broken
				// ADR promise; the beyond-ADR mode is exercised against
				// the recoverable structures instead.
				continue
			}
			name, p, pi, plan := name, p, pi, plan
			tcells = append(tcells, tortureCell{
				cell: sweep.Cell[*tortureOutcome]{
					Key: fmt.Sprintf("litmus/%s/plan%d", name, pi),
					Run: func(m *sweep.CellMetrics) (*tortureOutcome, error) {
						lo := &litmusOutcome{}
						res, err := litmus.CheckWithFaults(p, o.LitmusStride, plan)
						if err != nil {
							lo.violation = fmt.Sprintf("litmus %s plan %d: %v", name, pi, err)
						} else {
							lo.crashPoints = res.CrashPoints
						}
						return &tortureOutcome{litmus: lo}, nil
					},
				},
				fold: func(rep *TortureReport, out *tortureOutcome) {
					if out.litmus.violation != "" {
						rep.Violations = append(rep.Violations, out.litmus.violation)
						return
					}
					rep.LitmusCrashPoints += out.litmus.crashPoints
				},
			})
		}
	}
	return tcells
}

// crashCycles spaces o.Crashes crash points evenly over a crash-free
// run of end cycles.
func crashCycles(o TortureOptions, end sim.Cycle) []sim.Cycle {
	cuts := make([]sim.Cycle, o.Crashes)
	for i := range cuts {
		cuts[i] = sim.Cycle(uint64(end) * uint64(i+1) / uint64(o.Crashes+1))
		if cuts[i] == 0 {
			cuts[i] = 1
		}
	}
	return cuts
}

// subject is one crash-cut target of the sweep: a pds workload or the
// redo-log record.
type subject struct {
	// name prefixes violations; cell prefixes cell keys.
	name, cell string
	// target constructs the subject's crash-cut target; every cell gets
	// its own (a workload target verifies against its latest build).
	target func() (crashcut.Target, error)
	redo   bool
}

func workloadSubject(o TortureOptions, bench string) subject {
	return subject{
		name: bench, cell: "workload/" + bench,
		target: func() (crashcut.Target, error) {
			return crashcut.Workload(bench, o.Threads, o.OpsPerThread, int64(o.Seed), o.Controllers)
		},
	}
}

func redologSubject(o TortureOptions) subject {
	return subject{
		name: "redolog", cell: "redolog",
		target: func() (crashcut.Target, error) { return crashcut.RedoRecord(o.Controllers), nil },
		redo:   true,
	}
}

// cutCell sweeps crash cuts over one (subject, fault plan) pair. One
// request to the sweep's crash-cut cache places o.Crashes cuts evenly
// over the crash-free run — the first cell to ask produces the run (a
// media plan's by walking the subject's media-free PM log under the
// plan) and walks the log to every cut, every other cell whose plan
// makes the same run (all media-free plans) reuses the checkpoints —
// and each cut's checkpoint is turned into a combo outcome.
func cutCell(o TortureOptions, cache *crashcut.Cache, s subject, pi int, plan faultinject.Plan, comboBase int) tortureCell {
	return tortureCell{
		cell: sweep.Cell[*tortureOutcome]{
			Key: fmt.Sprintf("%s/plan%d", s.cell, pi),
			Run: func(m *sweep.CellMetrics) (*tortureOutcome, error) {
				target, err := s.target()
				if err != nil {
					return nil, err
				}
				p, err := cache.Get(crashcut.Request{
					Target: target,
					Plan:   plan,
					Cuts:   func(end sim.Cycle) []sim.Cycle { return crashCycles(o, end) },
				})
				if err != nil {
					return nil, fmt.Errorf("harness: torture %s plan %d: %w", s.name, pi, err)
				}
				m.PrefixReused = p.Captured == 0
				m.CheckpointMisses += uint64(p.Captured)
				m.AddRun(uint64(p.End), p.Ctrl)
				m.AddEngine(p.Eng)
				m.AddCOW(p.COW)
				combos := make([]comboOutcome, len(p.Cuts))
				for i, cut := range p.Cuts {
					m.CheckpointHits++
					combos[i] = comboAt(o, s, target, pi, plan, comboBase+i+1, cut)
					m.AddRun(uint64(cut.CP.At), combos[i].ctrl)
				}
				return &tortureOutcome{combos: combos, redo: s.redo}, nil
			},
		},
		fold: foldCombos,
	}
}

// comboAt turns a crash cut's checkpoint into the combo's outcome:
// crash image, recovery, invariant check, and — on every
// ConvergeEvery-th combo of the sweep (combo numbers it globally) — the
// crash-during-recovery convergence sweep. The crash image draws from a
// fresh per-cut injector (crashcut.CutInjector), while media-fault
// counters come from the armed run injector's snapshot at the cut; the
// two touch disjoint Stats fields, so the merge is exact.
func comboAt(o TortureOptions, s subject, target crashcut.Target, pi int, plan faultinject.Plan,
	combo int, cut crashcut.Cut) comboOutcome {
	fiImg := crashcut.CutInjector(plan, cut.CP.At)
	crash := fiImg.CheckpointImage(cut.CP)
	co := comboOutcome{fingerprint: crash.Fingerprint(), fault: fiImg.Stats(), ctrl: cut.CP.PM.Stats()}
	co.fault.MediaFaults = cut.FI.Stats.MediaFaults
	co.fault.MediaDelays = cut.FI.Stats.MediaDelays
	co.torn = co.fault.TornLines > 0
	img := crash.Clone()
	rec, verr := target.Recover(img)
	if verr == nil {
		verr = target.Verify(img)
	}
	if verr != nil {
		if plan.TearAccepted {
			co.beyondADR = true
		} else {
			co.violation = fmt.Sprintf("%s plan %d crash@%d: %v", s.name, pi, cut.CP.At, verr)
		}
		return co
	}
	co.tornDiscarded = rec.Scrubbed
	co.actions = rec.Actions
	if combo%o.ConvergeEvery == 0 {
		cv, err := faultinject.CheckConvergence(crash, func(im *mem.Image) error {
			_, err := target.Recover(im)
			return err
		}, o.MaxBudgets)
		conv := &convOutcome{budgets: cv.BudgetsTried, cuts: cv.CutsObserved}
		if err != nil {
			conv.violation = fmt.Sprintf("%s plan %d crash@%d convergence: %v", s.name, pi, cut.CP.At, err)
		} else if cv.BudgetsTried == o.MaxBudgets && o.MaxBudgets > 0 {
			conv.capped = true
		}
		co.conv = conv
	}
	return co
}

// foldCombos merges a workload or redolog cell's combo outcomes into
// the report, in combo order.
func foldCombos(rep *TortureReport, out *tortureOutcome) {
	for _, co := range out.combos {
		rep.Combos++
		rep.ImageDigest = rep.ImageDigest*1099511628211 ^ co.fingerprint
		rep.TornLines += co.fault.TornLines
		rep.DroppedLines += co.fault.DroppedLines
		rep.MediaFaults += co.fault.MediaFaults
		rep.MediaDelays += co.fault.MediaDelays
		if co.ctrl.MaxPendingArrivals > rep.MaxPendingArrivals {
			rep.MaxPendingArrivals = co.ctrl.MaxPendingArrivals
		}
		rep.PendingStallCycles += co.ctrl.PendingStallCycles
		rep.MediaRetriesExhausted += co.ctrl.MediaRetriesExhausted
		if co.torn {
			rep.TornImages++
		}
		if co.violation != "" {
			rep.Violations = append(rep.Violations, co.violation)
			continue
		}
		if co.beyondADR {
			rep.BeyondADR++
			continue
		}
		if co.torn {
			rep.TornRepaired++
		}
		rep.TornLogEntries += co.tornDiscarded
		if out.redo {
			rep.Replayed += co.actions
		} else {
			rep.RolledBack += co.actions
		}
		if co.conv != nil {
			if out.redo {
				rep.RedoBudgets += co.conv.budgets
				rep.RedoCuts += co.conv.cuts
			} else {
				rep.UndoBudgets += co.conv.budgets
				rep.UndoCuts += co.conv.cuts
			}
			if co.conv.violation != "" {
				rep.Violations = append(rep.Violations, co.conv.violation)
			} else if co.conv.capped {
				rep.BudgetSweepsCapped++
			}
		}
	}
}

// PrintTorture renders a torture report.
func PrintTorture(w io.Writer, o TortureOptions, rep *TortureReport) {
	o = o.withDefaults()
	fmt.Fprintf(w, "Torture sweep: seed %d, %d fault plans, %d crash/plan, benchmarks %v\n",
		rep.Seed, rep.Plans, o.Crashes, o.Benchmarks)
	fmt.Fprintf(w, "  combos run:            %d (crash cycle x fault plan)\n", rep.Combos)
	fmt.Fprintf(w, "  litmus:                %d programs, %d fault-laden crash points\n",
		rep.LitmusPrograms, rep.LitmusCrashPoints)
	fmt.Fprintf(w, "  torn crash images:     %d (%d repaired by recovery)\n", rep.TornImages, rep.TornRepaired)
	fmt.Fprintf(w, "  torn lines/dropped:    %d/%d (8-byte word granularity)\n", rep.TornLines, rep.DroppedLines)
	fmt.Fprintf(w, "  torn log entries:      %d discarded by checksum scrub\n", rep.TornLogEntries)
	fmt.Fprintf(w, "  recovery actions:      %d rolled back (undo), %d replayed (redo)\n", rep.RolledBack, rep.Replayed)
	fmt.Fprintf(w, "  media faults/delays:   %d/%d (retries exhausted: %d)\n",
		rep.MediaFaults, rep.MediaDelays, rep.MediaRetriesExhausted)
	fmt.Fprintf(w, "  overflow queue:        max depth %d, %d stall cycles\n",
		rep.MaxPendingArrivals, rep.PendingStallCycles)
	fmt.Fprintf(w, "  crash-during-recovery: undo %d budgets/%d cuts, redo %d budgets/%d cuts (capped sweeps: %d)\n",
		rep.UndoBudgets, rep.UndoCuts, rep.RedoBudgets, rep.RedoCuts, rep.BudgetSweepsCapped)
	if rep.BeyondADR > 0 {
		fmt.Fprintf(w, "  beyond-ADR breakage:   %d combos (TearAccepted violates the hardware contract)\n", rep.BeyondADR)
	}
	fmt.Fprintf(w, "  image digest:          %016x\n", rep.ImageDigest)
	if len(rep.Violations) == 0 {
		fmt.Fprintf(w, "  violations:            none\n")
		return
	}
	fmt.Fprintf(w, "  VIOLATIONS (%d):\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "    %s\n", v)
	}
}
