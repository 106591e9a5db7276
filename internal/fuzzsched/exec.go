package fuzzsched

import (
	"fmt"
	"strconv"

	"strandweaver/internal/crashcut"
	"strandweaver/internal/faultinject"
	"strandweaver/internal/sim"
)

// ExecOptions bounds one schedule execution.
type ExecOptions struct {
	// EventBudget arms the sim-engine watchdog on every run (0 uses
	// DefaultEventBudget): a schedule that livelocks the simulator
	// degrades into a typed error instead of hanging the search.
	EventBudget uint64
	// Controllers is the number of address-interleaved PM controllers
	// each executed machine shards the persistence boundary across (0 =
	// the configuration default, one controller). Part of the execution
	// cache signature, so counts never share cached runs.
	Controllers int
	// Cache, when non-nil, memoises crash-free run lengths and
	// crashed-run checkpoints across executions (see ExecCache); nil
	// gives the execution a private one. Outcomes are byte-identical
	// either way.
	Cache *ExecCache
}

// DefaultEventBudget is the per-run watchdog arming used when
// ExecOptions does not override it.
const DefaultEventBudget = 50_000_000

// cycleLimit bounds each run in simulated time.
const cycleLimit = 2_000_000_000

func (o ExecOptions) withDefaults() ExecOptions {
	if o.EventBudget == 0 {
		o.EventBudget = DefaultEventBudget
	}
	return o
}

// Outcome is one executed schedule's result.
type Outcome struct {
	// End is the crash-free run length; CrashAt the injected crash
	// cycle derived from the genome's CrashFrac.
	End     sim.Cycle
	CrashAt sim.Cycle
	// Violation is non-empty when the schedule broke an invariant or
	// recovery diverged — except under TearAccepted, where the same
	// failures set BeyondADR instead (the genome violated the hardware
	// contract, so breakage is expected, and is coverage, not a bug).
	Violation string
	BeyondADR bool
	// Fingerprint identifies the crash image (byte-for-byte replay
	// checks compare it).
	Fingerprint uint64
	// Cov is the schedule's coverage sample.
	Cov Coverage
}

// ExecCache memoises crash-free run lengths and crashed-run
// checkpoints across Execute calls: the crash-cut cache the torture
// sweep uses too (see crashcut.Cache). Share one across a search;
// fuzzsched.Run wires one into its ExecOptions.
type ExecCache = crashcut.Cache

// NewExecCache returns an empty execution cache.
func NewExecCache() *ExecCache { return crashcut.NewCache() }

// buildTarget lowers a genome's target to its crash-cut target and the
// target's run key; controllers is the harness-level PM controller
// count (0 = configuration default).
//
// The run key names exactly what reaches the simulated run: the
// arguments the target is built from, normalised as they are passed
// (TargetRedolog takes neither Threads nor Mutant; a workload target
// takes FaultSeed as its operation-mix seed), the controller count, and
// the fault plan's run-visible part (faultinject.Plan.RunKey), so
// media-free plans share a run whatever their seed. It is built by
// appends: a cache-hit schedule builds one per Execute. Everything else —
// CrashFrac, Torn, DropProbMilli, TearAccepted, RecoveryCut(2) — acts at
// crash-image time or later, off the simulated machine. Mutation walks
// those cheap knobs far more often than the expensive ones, so a search
// re-simulates identical runs constantly; the execution cache serves
// them instead. Cached results are byte-identical to cold execution
// (docs/SNAPSHOT.md), so corpus coverage keys, fingerprints and
// violations are unchanged at any hit rate — hits and misses are
// observability, never coverage.
func buildTarget(g Genome, controllers int) (crashcut.Target, string, error) {
	threads := max(g.Threads, 1)
	ops := max(g.Ops, 1)
	key := append(make([]byte, 0, 96), g.Target...)
	var t crashcut.Target
	switch g.Target {
	case TargetUndolog:
		mutant := g.Mutant == MutantNoDataFlush
		t = crashcut.DirectUndolog(threads, ops, mutant, controllers)
		key = appendField(key, "|t", uint64(threads))
		key = appendField(key, "|o", uint64(ops))
		key = strconv.AppendBool(append(key, "|m"...), mutant)
	case TargetRedolog:
		t = crashcut.DirectRedolog(ops, controllers)
		key = appendField(key, "|o", uint64(ops))
	default:
		// A Table II data structure through the TXN runtime, with the
		// genome's FaultSeed doubling as the operation-mix seed.
		var err error
		if t, err = crashcut.Workload(g.Target, threads, ops, int64(g.FaultSeed), controllers); err != nil {
			return t, "", fmt.Errorf("fuzzsched: unknown target %q: %w", g.Target, err)
		}
		key = appendField(key, "|t", uint64(threads))
		key = appendField(key, "|o", uint64(ops))
		key = appendField(key, "|s", g.FaultSeed)
	}
	key = appendField(key, "|c", uint64(controllers))
	key = g.Plan().AppendRunKey(append(key, '|'))
	return t, string(key), nil
}

// appendField appends tag and v in decimal to b.
func appendField(b []byte, tag string, v uint64) []byte {
	return strconv.AppendUint(append(b, tag...), v, 10)
}

// Execute runs one schedule: a crash-free run to measure the
// schedule's length, a crashed run at the genome's crash fraction, a
// crash image under the genome's fault plan, recovery (optionally
// interrupted at the genome's write budgets) and the invariant check.
// The returned error is an infrastructure failure (a build error or a
// wedged crash-free run); schedule-found failures land in
// Outcome.Violation / Outcome.BeyondADR instead.
func Execute(g Genome, o ExecOptions) (*Outcome, error) {
	o = o.withDefaults()
	target, key, err := buildTarget(g, o.Controllers)
	if err != nil {
		return nil, err
	}
	cache := o.Cache
	if cache == nil {
		cache = NewExecCache()
	}

	// One crash cut at the genome's crash fraction of the crash-free
	// run, which also validates the workload completes under the
	// watchdog. The crash image draws from the armed run injector at its
	// stream position at the cut.
	plan := g.Plan()
	p, err := cache.Get(crashcut.Request{
		Key:      key,
		Build:    target.Build,
		Plan:     plan,
		Limit:    cycleLimit,
		Watchdog: o.EventBudget,
		Cuts: func(end sim.Cycle) []sim.Cycle {
			return []sim.Cycle{sim.Cycle(1 + uint64(end-1)*uint64(g.CrashFrac&0xffff)/65536)}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fuzzsched: %s %w", g.Target, err)
	}
	end, cut := p.End, p.Cuts[0]
	crashAt := cut.At
	fi := faultinject.New(plan)
	if plan.RunVisible() != (faultinject.Plan{}) {
		// The run drew media faults from the armed injector. Under a
		// media-free plan it drew nothing, so a fresh injector already
		// stands where it stood at the cut, and the cut may come from a
		// run armed with another seed.
		fi.Restore(cut.FI)
	}
	crash := fi.CheckpointImage(cut.CP)

	out := &Outcome{End: end, CrashAt: crashAt, Fingerprint: crash.Fingerprint()}
	fst := fi.Stats()
	out.Cov = Coverage{
		TornLines:    fst.TornLines,
		LandedLines:  fst.LandedLines,
		DroppedLines: fst.DroppedLines,
		AcceptedTorn: fst.AcceptedTorn,
	}
	// fail records an invariant or recovery failure. Under TearAccepted
	// the genome broke the hardware contract by construction, so the
	// failure is coverage (BeyondADR), never a Violation. failed drives
	// the early returns below regardless of classification.
	failed := false
	fail := func(class uint8, format string, args ...any) {
		failed = true
		msg := fmt.Sprintf(format, args...)
		if g.TearAccepted {
			out.BeyondADR = true
			if out.Cov.Class == ClassOK {
				out.Cov.Class = ClassBeyondADR
			}
			return
		}
		out.Cov.Class = class
		if out.Violation == "" {
			out.Violation = fmt.Sprintf("%s crash@%d/%d: %s", g.Target, crashAt, end, msg)
		}
	}

	// Uninterrupted recovery + invariant check.
	golden := crash.Clone()
	rs, rerr := target.Recover(golden)
	if rerr != nil {
		fail(ClassRecoveryError, "recovery failed: %v", rerr)
		return out, nil
	}
	out.Cov.TornScrubbed = rs.Scrubbed
	out.Cov.Actions = rs.Actions
	out.Cov.CommitsFinished = rs.Commits
	out.Cov.Invalidated = rs.Invalidated
	out.Cov.StateSig = target.StateSig(golden)
	if verr := target.Verify(golden); verr != nil {
		fail(ClassViolation, "invariant broken after recovery: %v", verr)
		return out, nil
	}

	// Crash-during-recovery at the genome's write budgets: interrupt,
	// optionally interrupt the re-run too, then finish and require
	// convergence with the uninterrupted pass.
	if g.RecoveryCut >= 0 {
		img := crash.Clone()
		step := func(budget int) bool {
			cut, err := faultinject.RunToPowerCut(img, budget, func() error {
				_, err := target.Recover(img)
				return err
			})
			if err != nil {
				fail(ClassRecoveryError, "interrupted recovery (budget %d) failed: %v", budget, err)
				return false
			}
			if cut {
				out.Cov.CutsObserved++
			}
			return cut
		}
		cut := step(g.RecoveryCut)
		if failed {
			return out, nil
		}
		if cut && g.RecoveryCut2 >= 0 {
			step(g.RecoveryCut2)
			if failed {
				return out, nil
			}
		}
		if _, err := target.Recover(img); err != nil {
			fail(ClassRecoveryError, "recovery re-run after cut failed: %v", err)
			return out, nil
		}
		if !img.Equal(golden) {
			fail(ClassViolation, "interrupted-then-rerun recovery diverges from uninterrupted pass (budget %d/%d)",
				g.RecoveryCut, g.RecoveryCut2)
			return out, nil
		}
	}
	return out, nil
}
