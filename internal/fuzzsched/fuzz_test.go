package fuzzsched

import (
	"strings"
	"testing"
)

// The search is a pure function of (seed, budget): worker count must
// not change the corpus, the violations, or any recorded byte.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	opts := func(parallel int) Options {
		return Options{
			Seed:      2,
			Schedules: 48,
			Targets:   []string{TargetUndolog},
			Mutant:    MutantNoDataFlush,
			Parallel:  parallel,
		}
	}
	serial, err := Run(opts(1))
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	wide, err := Run(opts(4))
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	if s, w := serial.Corpus.Digest(), wide.Corpus.Digest(); s != w {
		t.Fatalf("corpus digest differs across worker counts: %016x vs %016x", s, w)
	}
	if serial.Executed != wide.Executed || serial.BeyondADR != wide.BeyondADR {
		t.Fatalf("counters differ: executed %d/%d beyondADR %d/%d",
			serial.Executed, wide.Executed, serial.BeyondADR, wide.BeyondADR)
	}
	if len(serial.Violations) != len(wide.Violations) {
		t.Fatalf("violation counts differ: %d vs %d", len(serial.Violations), len(wide.Violations))
	}
	for i := range serial.Violations {
		a, b := serial.Violations[i], wide.Violations[i]
		if a.Repro() != b.Repro() || a.Schedule != b.Schedule {
			t.Fatalf("violation %d differs:\n%s\nvs\n%s", i, a.Repro(), b.Repro())
		}
	}
}

// Seeded-mutant conviction: deleting the data flush from the undo-log
// write path must be found within a fixed schedule budget, shrunk to a
// minimal repro, and the repro must replay byte-for-byte.
func TestMutantConvictionShrinkReplay(t *testing.T) {
	res, err := Run(Options{
		Seed:      1,
		Schedules: 64,
		Targets:   []string{TargetUndolog},
		Mutant:    MutantNoDataFlush,
		Parallel:  4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("mutant not convicted in 64 schedules (corpus %d, beyondADR %d)",
			res.Corpus.Len(), res.BeyondADR)
	}
	v := res.Violations[0]
	if !strings.Contains(v.Failure, "invariant broken") {
		t.Fatalf("unexpected failure shape: %q", v.Failure)
	}
	if v.Shrunk == nil {
		t.Fatal("first violation was not shrunk")
	}
	if res.ShrinkExecutions == 0 {
		t.Fatal("shrink accounting lost its executions")
	}

	// The minimal repro keeps the bug but sheds incidental complexity:
	// no crash-during-recovery cuts, no media faults.
	sg := v.Shrunk.Genome
	if sg.RecoveryCut != -1 || sg.RecoveryCut2 != -1 {
		t.Fatalf("shrunk genome kept recovery cuts: %s", sg.Key())
	}
	if sg.MediaFaultMilli != 0 || sg.MediaDelayMilli != 0 {
		t.Fatalf("shrunk genome kept media faults: %s", sg.Key())
	}
	if sg.Mutant != MutantNoDataFlush {
		t.Fatalf("shrink dropped the mutant: %s", sg.Key())
	}

	// Byte-for-byte replay: the repro file reproduces the recorded
	// failure text and crash-image fingerprint exactly.
	repro := v.Repro()
	if err := Replay(repro, ExecOptions{}); err != nil {
		t.Fatalf("repro does not replay:\n%s\nerror: %v", repro, err)
	}

	// A tampered fingerprint must be caught — replay is a real check,
	// not a formality. Flip the first hex digit to a different valid
	// digit so the value parses but no longer matches.
	field := strings.Index(repro, "fingerprint: ")
	if field < 0 {
		t.Fatalf("repro has no fingerprint field:\n%s", repro)
	}
	pos := field + len("fingerprint: ")
	flip := byte('0')
	if repro[pos] == '0' {
		flip = '1'
	}
	bad := repro[:pos] + string(flip) + repro[pos+1:]
	if err := Replay(bad, ExecOptions{}); err == nil {
		t.Fatal("Replay accepted a tampered fingerprint")
	}

	// Violating schedules also enter the corpus (their coverage class is
	// novel); their corpus repro files must record the failure and
	// replay truthfully, same as violation repros.
	replayedViolating := false
	for _, e := range res.Corpus.Entries {
		if e.Failure == "" {
			continue
		}
		if err := Replay(EncodeEntry(e), ExecOptions{}); err != nil {
			t.Fatalf("violating corpus entry (schedule %d) does not replay: %v", e.Schedule, err)
		}
		replayedViolating = true
		break
	}
	if !replayedViolating {
		t.Fatal("no violating schedule reached the corpus; coverage class separation broken")
	}
}

// The faithful (unmutated) model must survive the same search budget
// with zero violations: recovery really is correct under torn persists,
// media faults and nested crash-during-recovery cuts.
func TestHealthyModelSurvivesSearch(t *testing.T) {
	res, err := Run(Options{Seed: 3, Schedules: 64, Parallel: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("healthy model violation: %q genome=%s", v.Failure, v.Genome.Key())
	}
	if res.Corpus.Len() < 2 {
		t.Fatalf("search found almost no coverage: corpus %d", res.Corpus.Len())
	}
	if len(res.ExecErrors) != 0 {
		t.Fatalf("healthy search hit exec errors: %v", res.ExecErrors)
	}
}

// A wedged schedule degrades into an ExecErrors entry under KeepGoing;
// the search itself never hangs.
func TestRunDegradesWedgedSchedules(t *testing.T) {
	res, err := Run(Options{
		Seed:      1,
		Schedules: 4,
		Targets:   []string{TargetUndolog},
		Exec:      ExecOptions{EventBudget: 500},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.ExecErrors) == 0 {
		t.Fatal("watchdog-killed schedule not recorded in ExecErrors")
	}
	if !strings.Contains(res.ExecErrors[0], "event budget exceeded") {
		t.Fatalf("ExecErrors entry lost the watchdog cause: %s", res.ExecErrors[0])
	}
}

// The deadline hook stops the search between batches; it must never be
// needed for correctness (a schedule-budget run terminates on its own)
// but when set it bounds the run.
func TestRunDeadlineStopsEarly(t *testing.T) {
	calls := 0
	res, err := Run(Options{
		Seed:      1,
		Schedules: 1000,
		Targets:   []string{TargetUndolog},
		Deadline: func() bool {
			calls++
			return calls > 3
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Executed >= 1000 {
		t.Fatal("deadline did not stop the search")
	}
	if res.Executed == 0 {
		t.Fatal("deadline fired before any batch ran")
	}
}

// Corpus entries written as repro files replay cleanly: a healthy
// entry's recorded fingerprint matches re-execution.
func TestCorpusEntriesReplay(t *testing.T) {
	res, err := Run(Options{Seed: 1, Schedules: 16, Targets: []string{TargetRedolog}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Corpus.Len() == 0 {
		t.Fatal("empty corpus")
	}
	for i, e := range res.Corpus.Entries {
		if i >= 3 {
			break
		}
		if err := Replay(EncodeEntry(e), ExecOptions{}); err != nil {
			t.Fatalf("corpus entry %d does not replay: %v", i, err)
		}
	}
}

// Controller count reaches every executed machine, so the search must
// stay a pure function of (seed, budget, controllers): worker count
// must not change anything, and different counts must not collide in
// the execution cache (the run key includes the count).
func TestRunDeterministicMultiController(t *testing.T) {
	opts := func(controllers, parallel int) Options {
		return Options{
			Seed:      2,
			Schedules: 24,
			Targets:   []string{TargetUndolog},
			Parallel:  parallel,
			Exec:      ExecOptions{Controllers: controllers},
		}
	}
	for _, n := range []int{2, 4} {
		serial, err := Run(opts(n, 1))
		if err != nil {
			t.Fatalf("controllers=%d serial: %v", n, err)
		}
		wide, err := Run(opts(n, 4))
		if err != nil {
			t.Fatalf("controllers=%d parallel: %v", n, err)
		}
		if s, w := serial.Corpus.Digest(), wide.Corpus.Digest(); s != w {
			t.Errorf("controllers=%d: corpus digest differs across worker counts: %016x vs %016x", n, s, w)
		}
		if len(serial.Violations) != 0 {
			t.Errorf("controllers=%d: healthy model violated: %d violations", n, len(serial.Violations))
		}
	}
}

// A power cut truncates the machine-wide stream of unaccepted writes at
// one point at every controller count, so the healthy model survives a
// 2-controller search, while the seeded mutant is still convicted.
// Cutting each controller's share of the stream at its own point lands
// a later write while dropping an earlier one, which this search finds
// in the healthy undo log.
func TestMultiControllerSearchOneCut(t *testing.T) {
	healthy, err := Run(Options{Seed: 1, Schedules: 256, Parallel: 2, Exec: ExecOptions{Controllers: 2}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range healthy.Violations {
		t.Errorf("healthy model violation at 2 controllers: %q genome=%s", v.Failure, v.Genome.Key())
	}
	mutant, err := Run(Options{Seed: 1, Schedules: 64, Targets: []string{TargetUndolog},
		Mutant: MutantNoDataFlush, Parallel: 2, Exec: ExecOptions{Controllers: 2}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(mutant.Violations) == 0 {
		t.Error("mutant not convicted in 64 schedules at 2 controllers")
	}
}
