package fuzzsched

import (
	"errors"
	"reflect"
	"testing"

	"strandweaver/internal/sim"
)

// A healthy schedule on the faithful model recovers cleanly.
func TestExecuteHealthySeeds(t *testing.T) {
	for _, target := range []string{TargetUndolog, TargetRedolog} {
		out, err := Execute(SeedGenome(target), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: Execute: %v", target, err)
		}
		if out.Violation != "" {
			t.Fatalf("%s: unexpected violation: %s", target, out.Violation)
		}
		if out.BeyondADR {
			t.Fatalf("%s: seed genome is within the ADR contract, got BeyondADR", target)
		}
		if out.End == 0 || out.CrashAt == 0 || out.CrashAt >= out.End {
			t.Fatalf("%s: implausible cycles end=%d crash=%d", target, out.End, out.CrashAt)
		}
	}
}

// Execute must be a pure function of the genome: same genome, same
// outcome, byte for byte.
func TestExecuteDeterministic(t *testing.T) {
	g := SeedGenome(TargetUndolog)
	g.Torn = true
	g.TearAccepted = true
	g.DropProbMilli = 400
	g.CrashFrac = 8192
	a, err := Execute(g, ExecOptions{})
	if err != nil {
		t.Fatalf("first Execute: %v", err)
	}
	b, err := Execute(g, ExecOptions{})
	if err != nil {
		t.Fatalf("second Execute: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("outcomes diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TearAccepted genomes land torn lines in the crash image; both undo
// and redo recovery must detect them by checksum and scrub them, and
// the same seed must scrub the same torn subset every time.
func TestTearAcceptedScrub(t *testing.T) {
	for _, tc := range []struct {
		target string
		frac   uint32
	}{
		{TargetUndolog, 8192},
		{TargetRedolog, 10240},
	} {
		g := SeedGenome(tc.target)
		g.Torn = true
		g.TearAccepted = true
		g.DropProbMilli = 400
		g.CrashFrac = tc.frac

		out, err := Execute(g, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: Execute: %v", tc.target, err)
		}
		if out.Cov.AcceptedTorn == 0 {
			t.Fatalf("%s: no torn lines accepted into the crash image", tc.target)
		}
		if out.Cov.TornScrubbed == 0 {
			t.Fatalf("%s: recovery scrubbed no torn entries (accepted %d torn lines)",
				tc.target, out.Cov.AcceptedTorn)
		}
		if out.Violation != "" {
			t.Fatalf("%s: TearAccepted schedule must classify as beyond-ADR, got violation %q",
				tc.target, out.Violation)
		}

		// Same seed, same teardown subset: the run is deterministic down
		// to which lines tore and which entries recovery discarded.
		again, err := Execute(g, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: replay Execute: %v", tc.target, err)
		}
		if again.Cov.AcceptedTorn != out.Cov.AcceptedTorn ||
			again.Cov.TornScrubbed != out.Cov.TornScrubbed ||
			again.Fingerprint != out.Fingerprint {
			t.Fatalf("%s: teardown subset not deterministic: %+v vs %+v", tc.target, out.Cov, again.Cov)
		}
	}
}

// Beyond-ADR breakage is coverage, not a bug: when a TearAccepted
// schedule breaks an invariant it must set BeyondADR + ClassBeyondADR
// and leave Violation empty.
func TestTearAcceptedClassifiesBeyondADR(t *testing.T) {
	found := false
	for frac := uint32(4096); frac < 32768; frac += 2048 {
		g := SeedGenome(TargetUndolog)
		g.Torn = true
		g.TearAccepted = true
		g.DropProbMilli = 400
		g.CrashFrac = frac
		out, err := Execute(g, ExecOptions{})
		if err != nil {
			t.Fatalf("frac %d: %v", frac, err)
		}
		if out.Violation != "" {
			t.Fatalf("frac %d: TearAccepted produced a violation: %s", frac, out.Violation)
		}
		if out.BeyondADR {
			if out.Cov.Class != ClassBeyondADR {
				t.Fatalf("frac %d: BeyondADR with class %d", frac, out.Cov.Class)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no crash fraction produced beyond-ADR breakage; sweep range too narrow")
	}
}

// A wedged schedule (here: an event budget too small for the workload)
// must surface as a typed infrastructure error, not a hang or a fake
// violation.
func TestExecuteWatchdogTypedError(t *testing.T) {
	g := SeedGenome(TargetUndolog)
	out, err := Execute(g, ExecOptions{EventBudget: 500})
	if err == nil {
		t.Fatalf("expected watchdog error, got outcome %+v", out)
	}
	if !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Fatalf("watchdog error not typed: %v", err)
	}
}

// Crash-during-recovery budgets: an interrupted-then-rerun recovery
// must converge with the uninterrupted pass, and the injected cuts
// must be observed.
func TestExecuteRecoveryCutConverges(t *testing.T) {
	g := SeedGenome(TargetUndolog)
	g.CrashFrac = 20480
	g.RecoveryCut = 2
	g.RecoveryCut2 = 1
	out, err := Execute(g, ExecOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out.Violation != "" {
		t.Fatalf("recovery under cuts diverged: %s", out.Violation)
	}
	if out.Cov.CutsObserved == 0 {
		t.Fatal("write budget of 2 never cut recovery; budget accounting broken")
	}
}

// TestExecCacheEquivalence: an Execute served from a shared cache must
// reproduce a fresh execution's Outcome byte for byte, including across
// the knobs excluded from the run key (crash fraction, tearing,
// recovery cuts), which are exactly the ones a hit short-circuits past.
func TestExecCacheEquivalence(t *testing.T) {
	base := SeedGenome(TargetUndolog)
	variants := []Genome{base}
	for _, frac := range []uint32{0, 9000, 32768, 50000, 65535} {
		g := base
		g.CrashFrac = frac
		variants = append(variants, g)
	}
	{
		g := base
		g.Torn = true
		g.DropProbMilli = 200
		variants = append(variants, g)
	}
	{
		g := base
		g.RecoveryCut = 3
		g.RecoveryCut2 = 1
		variants = append(variants, g)
	}
	{
		g := base
		g.TearAccepted = true
		g.Torn = true
		variants = append(variants, g)
	}

	cache := NewExecCache()
	for i, g := range variants {
		fresh, err := Execute(g, ExecOptions{})
		if err != nil {
			t.Fatalf("variant %d fresh: %v", i, err)
		}
		// Twice through the cache: the first call may miss and capture,
		// the second must hit; both must equal the fresh outcome.
		for pass := 0; pass < 2; pass++ {
			warm, err := Execute(g, ExecOptions{Cache: cache})
			if err != nil {
				t.Fatalf("variant %d cached pass %d: %v", i, pass, err)
			}
			if !reflect.DeepEqual(fresh, warm) {
				t.Errorf("variant %d pass %d: cached outcome differs from a fresh execution\nfresh: %+v\nwarm:  %+v",
					i, pass, fresh, warm)
			}
		}
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Error("no checkpoint hits across repeated executions")
	}
}
