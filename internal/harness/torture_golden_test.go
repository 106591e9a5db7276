package harness

import (
	"encoding/json"
	"os"
	"testing"
)

// tortureGoldenPath pins whole torture reports: every counter, every
// violation and the ImageDigest, which folds each crash image's bytes
// in sweep order.
const tortureGoldenPath = "testdata/torture_reports.json"

// tortureGoldenGrids are the pinned option sets. Together they cover a
// parallel sweep, several benchmarks at a non-default scale, the
// beyond-ADR TearAccepted plan and a two-controller machine.
var tortureGoldenGrids = map[string]TortureOptions{
	"queue-parallel4": {Seed: 5, Benchmarks: []string{"queue"}, Crashes: 5, SkipLitmus: true,
		ConvergeEvery: 2, Parallel: 4},
	"queue-hashmap-threads3": {Seed: 9, Benchmarks: []string{"queue", "hashmap"}, Crashes: 4, SkipLitmus: true,
		Threads: 3, OpsPerThread: 20, ConvergeEvery: 3},
	"queue-tear-accepted": {Seed: 3, Benchmarks: []string{"queue"}, Crashes: 6, SkipLitmus: true,
		TearAccepted: true, ConvergeEvery: 1000},
	"queue-controllers2-parallel4": {Seed: 5, Benchmarks: []string{"queue"}, Crashes: 5, SkipLitmus: true,
		ConvergeEvery: 2, Controllers: 2, Parallel: 4},
}

// TestTortureReportsGolden is the crash-cut executor's guard: each
// pinned option set must reproduce its recorded report exactly.
// Regenerate with: go test ./internal/harness -run TestTortureReportsGolden -update
func TestTortureReportsGolden(t *testing.T) {
	got := map[string]*TortureReport{}
	for name, o := range tortureGoldenGrids {
		rep, err := Torture(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = rep
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tortureGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d reports)", tortureGoldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(tortureGoldenPath)
	if err != nil {
		t.Fatalf("read torture goldens (regenerate with -update): %v", err)
	}
	var want map[string]*TortureReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse torture goldens: %v", err)
	}
	compareGoldenSection(t, "torture", want, got)
}
