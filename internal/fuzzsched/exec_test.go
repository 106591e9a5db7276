package fuzzsched

import (
	"errors"
	"reflect"
	"runtime"
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
// recovery cuts, and under a media-free plan the fault seed and delay
// magnitude; the threads and mutant of targets that ignore them), which
// are exactly the ones a hit short-circuits past. A variant whose run
// and cut an earlier variant already simulated must hit on its first
// cached pass; a media plan's seed, and a workload target's op-mix
// seed, reach the run, so a variant differing only in them must not.
func TestExecCacheEquivalence(t *testing.T) {
	type variant struct {
		g   Genome
		hit bool // first cached pass served from the cache
	}
	base := SeedGenome(TargetUndolog)
	variants := []variant{{base, false}}
	with := func(g Genome, hit bool, edit func(*Genome)) {
		edit(&g)
		variants = append(variants, variant{g, hit})
	}
	for _, frac := range []uint32{0, 9000, 32768, 50000, 65535} {
		with(base, frac == base.CrashFrac, func(g *Genome) { g.CrashFrac = frac })
	}
	with(base, true, func(g *Genome) { g.Torn, g.DropProbMilli = true, 200 })
	with(base, true, func(g *Genome) { g.RecoveryCut, g.RecoveryCut2 = 3, 1 })
	with(base, true, func(g *Genome) { g.TearAccepted, g.Torn = true, true })
	for _, d := range []Genome{base, SeedGenome(TargetRedolog)} {
		if d.Target == TargetRedolog {
			with(d, false, func(*Genome) {})
			with(d, true, func(g *Genome) { g.Threads = 3 })
			with(d, true, func(g *Genome) { g.Mutant = MutantNoDataFlush })
		}
		with(d, true, func(g *Genome) { g.FaultSeed = 5 })
		with(d, true, func(g *Genome) { g.MediaDelayCycles = 900 })
		with(d, true, func(g *Genome) { g.FaultSeed, g.Torn, g.TearAccepted = 9, true, true })
	}
	media := base
	media.MediaFaultMilli, media.MediaDelayMilli, media.MediaDelayCycles = 300, 300, 200
	with(media, false, func(*Genome) {})
	with(media, false, func(g *Genome) { g.FaultSeed = 2 })
	// A workload target verifies against a laid-out instance even when
	// the cache served its cut, and takes FaultSeed as its op-mix seed.
	wl := SeedGenome("queue")
	with(wl, false, func(*Genome) {})
	with(wl, true, func(g *Genome) { g.Torn, g.DropProbMilli = true, 200 })
	with(wl, true, func(g *Genome) { g.Mutant = MutantNoDataFlush })
	with(wl, false, func(g *Genome) { g.FaultSeed = 2 })

	cache := NewExecCache()
	for i, v := range variants {
		fresh, err := Execute(v.g, ExecOptions{})
		if err != nil {
			t.Fatalf("variant %d fresh: %v", i, err)
		}
		// Twice through the cache: the first call hits only when an
		// earlier variant simulated the same run and cut, the second
		// must hit; both must equal the fresh outcome.
		for pass := 0; pass < 2; pass++ {
			before, _ := cache.Stats()
			warm, err := Execute(v.g, ExecOptions{Cache: cache})
			if err != nil {
				t.Fatalf("variant %d cached pass %d: %v", i, pass, err)
			}
			if !reflect.DeepEqual(fresh, warm) {
				t.Errorf("variant %d pass %d: cached outcome differs from a fresh execution\nfresh: %+v\nwarm:  %+v",
					i, pass, fresh, warm)
			}
			after, _ := cache.Stats()
			if hit, want := after > before, v.hit || pass == 1; hit != want {
				t.Errorf("variant %d (%s) pass %d: hit = %v, want %v", i, v.g.Key(), pass, hit, want)
			}
		}
	}
}

// TestExecuteHitBuildsNoMachine: an Execute served from the cache
// builds no machine; its crash image is read from the checkpoint, so it
// allocates a fraction of what a machine costs.
func TestExecuteHitBuildsNoMachine(t *testing.T) {
	const budget = 48 << 10
	for _, target := range []string{TargetUndolog, TargetRedolog} {
		o := ExecOptions{Cache: NewExecCache()}
		g := SeedGenome(target)
		if _, err := Execute(g, o); err != nil {
			t.Fatal(err)
		}
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := Execute(g, o); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if hits, misses := o.Cache.Stats(); hits != n || misses != 1 {
			t.Fatalf("%s: %d hits, %d misses; want %d hits after one miss", target, hits, misses, n)
		}
		if got := (after.TotalAlloc - before.TotalAlloc) / n; got > budget {
			t.Errorf("%s: a cache-hit Execute allocated %d bytes, want at most %d", target, got, budget)
		}
	}
}

// BenchmarkExecuteHit measures one Execute served from the cache on
// each direct target: crash image, recovery and invariant check.
func BenchmarkExecuteHit(b *testing.B) {
	for _, target := range []string{TargetUndolog, TargetRedolog} {
		b.Run(target, func(b *testing.B) {
			o := ExecOptions{Cache: NewExecCache()}
			g := SeedGenome(target)
			if _, err := Execute(g, o); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Execute(g, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSearchSimulatesEachTargetOnce: a seed-7, 512-schedule search runs
// one machine simulation per target it reaches, plus one per media-fault
// key the resimulation cannot serve; every other key is walked from its
// target's media-free log. Cut hits and misses are those of a search
// that simulated every key (334 and 178).
func TestSearchSimulatesEachTargetOnce(t *testing.T) {
	cache := NewExecCache()
	res, err := Run(Options{Seed: 7, Schedules: 512, Parallel: 1, Exec: ExecOptions{Cache: cache}})
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotHits != 334 || res.SnapshotMisses != 178 {
		t.Errorf("cut hits %d, misses %d; want 334 and 178", res.SnapshotHits, res.SnapshotMisses)
	}
	st := cache.Runs()
	if st.Simulated > st.Targets+st.Fallbacks {
		t.Errorf("runs %+v: more simulations than targets plus fallbacks", st)
	}
	if st.Resimulated == 0 || st.Fallbacks > st.Resimulated/10 {
		t.Errorf("runs %+v: want media-fault keys served by the walk", st)
	}
}
