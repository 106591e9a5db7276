package harness

import (
	"reflect"
	"strings"
	"testing"
)

// TestTortureDeterminism is the determinism regression: two sweeps with
// the same seed must produce identical reports — including ImageDigest,
// which folds every crash image's byte content, so equality means every
// PM image of the sweep is byte-identical across runs.
func TestTortureDeterminism(t *testing.T) {
	o := TortureOptions{Seed: 5, Benchmarks: []string{"queue"}, Crashes: 5,
		SkipLitmus: true, ConvergeEvery: 2}
	r1, err := Torture(o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Torture(o)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ImageDigest != r2.ImageDigest {
		t.Errorf("image digests differ: %016x vs %016x", r1.ImageDigest, r2.ImageDigest)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same-seed reports differ:\n%+v\n%+v", r1, r2)
	}
	// A different seed must change the digest (different fault draws).
	o.Seed = 6
	r3, err := Torture(o)
	if err != nil {
		t.Fatal(err)
	}
	if r3.ImageDigest == r1.ImageDigest {
		t.Error("different seeds produced identical image digests")
	}
}

// TestTortureSweepHealthy runs a mid-size sweep and asserts the
// subsystem's end-to-end claims: no invariant violations, torn images
// produced AND repaired, checksum scrubbing exercised, and
// crash-during-recovery cuts observed and converged for both engines.
func TestTortureSweepHealthy(t *testing.T) {
	o := TortureOptions{Seed: 1, Benchmarks: []string{"queue", "hashmap"},
		Crashes: 6, LitmusStride: 96}
	rep, err := Torture(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Combos < 30 {
		t.Errorf("only %d combos", rep.Combos)
	}
	if rep.TornImages == 0 || rep.TornRepaired == 0 {
		t.Errorf("torn images %d / repaired %d, want both > 0", rep.TornImages, rep.TornRepaired)
	}
	if rep.UndoCuts == 0 || rep.RedoCuts == 0 {
		t.Errorf("convergence cuts undo=%d redo=%d, want both > 0", rep.UndoCuts, rep.RedoCuts)
	}
	if rep.LitmusPrograms == 0 || rep.LitmusCrashPoints == 0 {
		t.Errorf("litmus phase empty: %d programs, %d points", rep.LitmusPrograms, rep.LitmusCrashPoints)
	}
	if rep.MediaFaults == 0 {
		t.Error("no media faults injected across the sweep")
	}
}

// TestTortureTearAcceptedIsBeyondADR: with TearAccepted on, breakage is
// expected and must be attributed to BeyondADR, never to Violations.
func TestTortureTearAcceptedIsBeyondADR(t *testing.T) {
	o := TortureOptions{Seed: 3, Benchmarks: []string{"queue"}, Crashes: 6,
		SkipLitmus: true, TearAccepted: true, ConvergeEvery: 1000}
	rep, err := Torture(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("contract-violating plan leaked into Violations: %v", rep.Violations)
	}
	if rep.Plans != 4 {
		t.Errorf("Plans = %d, want 4 with TearAccepted", rep.Plans)
	}
}

// TestTortureRejectsNegativeOptions: negative sizes and rates are
// rejected up front with an error naming the field, never a panic deep
// inside a sweep cell.
func TestTortureRejectsNegativeOptions(t *testing.T) {
	for _, tc := range []struct {
		field string
		o     TortureOptions
	}{
		{"Crashes", TortureOptions{Crashes: -1}},
		{"MaxBudgets", TortureOptions{MaxBudgets: -2}},
		{"ConvergeEvery", TortureOptions{ConvergeEvery: -3}},
		{"Threads", TortureOptions{Threads: -1}},
		{"OpsPerThread", TortureOptions{OpsPerThread: -10}},
		{"Intensity", TortureOptions{Intensity: -0.5}},
	} {
		tc.o.Benchmarks = []string{"queue"}
		tc.o.SkipLitmus = true
		_, err := Torture(tc.o)
		if err == nil {
			t.Errorf("%s: negative value accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error does not name the field: %v", tc.field, err)
		}
	}
}
