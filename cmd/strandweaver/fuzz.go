// The fuzz subcommand: coverage-guided fault-schedule search over the
// recovery paths, repro replay, and repro minimisation.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	sw "strandweaver"
)

// fuzzSummary is the -json output shape. It contains no wall-clock
// data, so two runs at the same seed and schedule budget emit
// byte-identical JSON (the CI determinism smoke diffs them).
// SnapshotBytes qualifies: the cache's retained set is a pure function
// of the executed schedule set as long as the byte budget never forces
// an eviction, which the cache budget guarantees for smoke-scale
// searches (see crashcut.Cache.RetainedBytes).
type fuzzSummary struct {
	Seed          uint64                 `json:"seed"`
	Targets       []string               `json:"targets"`
	Mutant        string                 `json:"mutant,omitempty"`
	Executed      int                    `json:"executed"`
	ShrinkExecs   int                    `json:"shrink_executions"`
	CorpusSize    int                    `json:"corpus_size"`
	CorpusDigest  string                 `json:"corpus_digest"`
	BeyondADR     int                    `json:"beyond_adr"`
	SnapshotBytes uint64                 `json:"snapshot_bytes"`
	ExecErrors    []string               `json:"exec_errors,omitempty"`
	Violations    []fuzzViolationSummary `json:"violations,omitempty"`
}

type fuzzViolationSummary struct {
	Schedule    int    `json:"schedule"`
	Failure     string `json:"failure"`
	Fingerprint string `json:"fingerprint"`
	Repro       string `json:"repro"`
}

// runFuzz dispatches the three fuzz modes: repro replay (-repro),
// repro minimisation (-repro -minimize), and the search itself.
func runFuzz(o options, metrics *sw.SweepReport) error {
	if o.fuzzRepro != "" {
		data, err := os.ReadFile(o.fuzzRepro)
		if err != nil {
			return err
		}
		exec := sw.FuzzExecOptions{Controllers: o.controllers}
		if o.fuzzMinimize {
			min, err := sw.FuzzMinimize(string(data), exec)
			if err != nil {
				return err
			}
			fmt.Print(min)
			return nil
		}
		if err := sw.FuzzReplay(string(data), exec); err != nil {
			return fmt.Errorf("repro %s did not reproduce: %w", o.fuzzRepro, err)
		}
		fmt.Printf("repro %s reproduces byte-for-byte\n", o.fuzzRepro)
		return nil
	}

	fo := sw.FuzzOptions{
		Seed:      uint64(o.seed),
		Schedules: o.fuzzSchedules,
		Targets:   o.fuzzTargets,
		Mutant:    o.fuzzMutant,
		Exec:      sw.FuzzExecOptions{Controllers: o.controllers},
		Parallel:  o.parallel,
		Metrics:   metrics,
	}
	if o.fuzzSchedules == 0 {
		fo.Schedules = math.MaxInt32 // unbounded; -duration stops the search
	}
	if o.fuzzDuration > 0 {
		// -duration is a wall-clock budget: it decides when the search
		// stops, never what a schedule computes.
		deadline := time.Now().Add(o.fuzzDuration)                      //strandvet:ok -duration deadline
		fo.Deadline = func() bool { return time.Now().After(deadline) } //strandvet:ok -duration deadline
	}
	res, err := sw.Fuzz(fo)
	if err != nil {
		return err
	}

	if o.fuzzOut != "" {
		if err := writeFuzzArtifacts(o.fuzzOut, res); err != nil {
			return err
		}
	}

	targets := fo.Targets
	if len(targets) == 0 {
		targets = []string{sw.FuzzTargetUndolog, sw.FuzzTargetRedolog}
	}
	if o.lintJSON {
		sum := fuzzSummary{
			Seed:          fo.Seed,
			Targets:       targets,
			Mutant:        fo.Mutant,
			Executed:      res.Executed,
			ShrinkExecs:   res.ShrinkExecutions,
			CorpusSize:    res.Corpus.Len(),
			CorpusDigest:  fmt.Sprintf("%016x", res.Corpus.Digest()),
			BeyondADR:     res.BeyondADR,
			SnapshotBytes: res.SnapshotBytes,
			ExecErrors:    res.ExecErrors,
		}
		for _, v := range res.Violations {
			sum.Violations = append(sum.Violations, fuzzViolationSummary{
				Schedule:    v.Schedule,
				Failure:     v.Failure,
				Fingerprint: fmt.Sprintf("%016x", v.Fingerprint),
				Repro:       v.Repro(),
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	} else {
		printFuzz(res, fo, targets)
	}
	if n := len(res.Violations); n > 0 {
		return fmt.Errorf("fuzz: %d invariant violations", n)
	}
	return nil
}

func printFuzz(res *sw.FuzzResult, fo sw.FuzzOptions, targets []string) {
	fmt.Printf("Coverage-guided fault-schedule fuzz (seed %d)\n", fo.Seed)
	fmt.Printf("  targets: %v", targets)
	if fo.Mutant != "" {
		fmt.Printf("  seeded mutant: %s", fo.Mutant)
	}
	fmt.Println()
	fmt.Printf("  executed %d schedules (+%d shrinking), corpus %d (digest %016x), beyond-ADR %d\n",
		res.Executed, res.ShrinkExecutions, res.Corpus.Len(), res.Corpus.Digest(), res.BeyondADR)
	for _, e := range res.ExecErrors {
		fmt.Printf("  degraded: %s\n", e)
	}
	if len(res.Violations) == 0 {
		fmt.Println("  no invariant violations")
		return
	}
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION (schedule %d): %s\n", v.Schedule, v.Failure)
		if v.Shrunk != nil {
			fmt.Printf("    shrunk in %d executions to:\n", v.Shrunk.Executions)
		} else {
			fmt.Println("    repro (unshrunk):")
		}
		for _, line := range splitLines(v.Repro()) {
			fmt.Printf("      %s\n", line)
		}
	}
}

// writeFuzzArtifacts saves the corpus and every violation as
// replayable repro files under dir.
func writeFuzzArtifacts(dir string, res *sw.FuzzResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, e := range res.Corpus.Entries {
		path := filepath.Join(dir, fmt.Sprintf("corpus-%04d.repro", i))
		if err := os.WriteFile(path, []byte(sw.FuzzEncodeCorpusEntry(e)), 0o644); err != nil {
			return err
		}
	}
	for i, v := range res.Violations {
		path := filepath.Join(dir, fmt.Sprintf("violation-%04d.repro", i))
		if err := os.WriteFile(path, []byte(v.Repro()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "[%d corpus + %d violation repro files written to %s]\n",
		len(res.Corpus.Entries), len(res.Violations), dir)
	return nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
