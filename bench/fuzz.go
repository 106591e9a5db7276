package main

import (
	"fmt"
	"time"

	"strandweaver/internal/config"
	"strandweaver/internal/fuzzsched"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/machine"
	"strandweaver/internal/redolog"
	"strandweaver/internal/sweep"
	"strandweaver/internal/undolog"
)

// The fuzz workload is coverage-guided fault-schedule search over the
// undo- and redo-log targets, serial: four independent 2048-schedule
// searches per pass, each large enough to fill the byte-budgeted LRU
// execution cache. It runs the same crash-cut layers as torture but as
// many short mutated runs through that cache, so a cache or executor
// change that helps torture at fuzz's cost shows here. One search's
// cost moves by up to a quarter with its seed; four per pass halve
// that.
var fuzzWorkload = &workload{
	name:    "fuzz",
	seed:    7,
	nominal: 7 * time.Second,
	// Set-up is building the seed schedules' starting systems.
	setup:     func(scale, int64) error { return buildFuzzSystems() },
	setupReps: 100,
	pass: func(sc scale, seed int64) (*passResult, error) {
		p, _, err := fuzzPass(sc, seed)
		return p, err
	},
	layers: func(sc scale, seed int64) (func(*recorder) (*passResult, error), *passResult, error) {
		// The search enters the program in one call, so the traced run
		// takes its counters from one untraced pass and times
		// fuzzsched.Execute on the first corpus entries of its first
		// search.
		base, corpus, err := fuzzPass(sc, seed)
		if err != nil {
			return nil, nil, err
		}
		entries := corpus.Entries
		if len(entries) > sc.replayExecs {
			entries = entries[:sc.replayExecs]
		}
		return func(rec *recorder) (*passResult, error) { return fuzzReplay(entries, rec) }, base, nil
	},
}

// fuzzSearches is the number of independent searches per pass.
const fuzzSearches = 4

// fuzzPinned is each search's corpus digest and size at seed 7, default
// scale.
var fuzzPinned = [fuzzSearches]struct {
	digest uint64
	size   int
}{
	{0xafc6bc2e81ed84c2, 539},
	{0xe77a9e71251fb0c8, 649},
	{0x2c2653e86c9921b2, 617},
	{0x256e202e8ef9ccb7, 631},
}

// fuzzSearchSeed derives search k's seed from the workload seed with
// the sweep engine's per-cell seed derivation.
func fuzzSearchSeed(seed int64, k int) uint64 {
	return sweep.CellSeed(uint64(seed), fmt.Sprintf("fuzz/%d", k))
}

// buildFuzzSystems builds the starting systems of the search's seed
// schedules the way the direct targets do: a StrandWeaver machine with
// the undo or redo logs initialised.
func buildFuzzSystems() error {
	for _, t := range []string{fuzzsched.TargetUndolog, fuzzsched.TargetRedolog} {
		g := fuzzsched.SeedGenome(t)
		cfg := config.Default()
		if t == fuzzsched.TargetRedolog {
			cfg.Cores = 1
		}
		sys, err := machine.New(cfg, hwdesign.StrandWeaver)
		if err != nil {
			return err
		}
		if t == fuzzsched.TargetRedolog {
			redolog.Init(sys, 1, 64)
		} else {
			undolog.Init(sys, g.Threads, 64)
		}
	}
	return nil
}

// fuzzPass runs the searches one after another and returns the first
// search's corpus. Ops are schedules, timed by the sweep's per-cell
// metrics.
func fuzzPass(sc scale, seed int64) (*passResult, *fuzzsched.Corpus, error) {
	p := &passResult{counters: map[string]float64{}}
	var first *fuzzsched.Corpus
	var hits, misses, busy, wall int64
	var retained uint64
	for k := 0; k < fuzzSearches; k++ {
		rep := sweep.NewReport("fuzz")
		t0 := time.Now()
		res, err := fuzzsched.Run(fuzzsched.Options{Seed: fuzzSearchSeed(seed, k), Schedules: sc.fuzzSchedules, Parallel: 1, Metrics: rep})
		p.wall += time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("fuzz search %d: %w", k, err)
		}
		if first == nil {
			first = res.Corpus
		}
		p.attempted += res.Executed
		for _, v := range res.Violations {
			p.fail("fuzz search %d schedule %d: %s", k, v.Schedule, v.Failure)
		}
		for _, e := range res.ExecErrors {
			p.fail("fuzz search %d: %s", k, e)
		}
		for _, c := range rep.Cells {
			p.ops = append(p.ops, time.Duration(c.WallNS))
		}
		digest := res.Corpus.Digest()
		if sc.pin {
			want := fuzzPinned[k]
			p.check(digest == want.digest && res.Corpus.Len() == want.size,
				"fuzz search %d corpus digest %016x (%d entries), pinned %016x (%d)", k, digest, res.Corpus.Len(), want.digest, want.size)
		}
		hits += int64(res.SnapshotHits)
		misses += int64(res.SnapshotMisses)
		if res.SnapshotBytes > retained {
			retained = res.SnapshotBytes
		}
		busy += rep.CellWallNS
		wall += rep.WallNS
		p.summary += fmt.Sprintf("[corpus %d, digest %016x] ", res.Corpus.Len(), digest)
	}
	if hits+misses > 0 {
		p.counters["fuzzsched.snapshot_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	p.counters["fuzzsched.snapshot_mb"] = float64(retained) / (1 << 20)
	p.counters["sweep.worker_busy_frac"] = float64(busy) / float64(wall)
	return p, first, nil
}

// fuzzReplay re-executes corpus entries through one fresh execution
// cache, as a search would, and checks each reproduces its recorded
// fingerprint and failure.
func fuzzReplay(entries []fuzzsched.Entry, rec *recorder) (*passResult, error) {
	p := &passResult{}
	cache := fuzzsched.NewExecCache()
	t0 := time.Now()
	for _, e := range entries {
		var out *fuzzsched.Outcome
		var err error
		rec.call("fuzzsched.Execute", 0, 0, func() { out, err = fuzzsched.Execute(e.Genome, fuzzsched.ExecOptions{Cache: cache}) })
		if err != nil {
			return nil, fmt.Errorf("fuzz replay of schedule %d: %w", e.Schedule, err)
		}
		p.check(out.Fingerprint == e.Fingerprint && out.Violation == e.Failure,
			"fuzz replay of schedule %d: fingerprint %016x, failure %q; corpus recorded %016x, %q",
			e.Schedule, out.Fingerprint, out.Violation, e.Fingerprint, e.Failure)
	}
	p.wall = time.Since(t0)
	return p, nil
}
