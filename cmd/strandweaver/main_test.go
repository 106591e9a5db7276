package main

import (
	"os"
	"strings"
	"testing"

	sw "strandweaver"
)

func parse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseArgs(args, os.Stderr)
	if err != nil {
		t.Fatalf("parseArgs(%v): %v", args, err)
	}
	return o
}

func TestValidateAcceptsDefaults(t *testing.T) {
	for _, cmd := range commands {
		if err := validate(parse(t, cmd)); err != nil {
			t.Errorf("%s with default flags rejected: %v", cmd, err)
		}
	}
}

func TestValidateRejectsNonPositiveCounts(t *testing.T) {
	cases := [][]string{
		{"torture", "-threads", "0"},
		{"torture", "-threads", "-3"},
		{"crash", "-ops", "0"},
		{"torture", "-ops", "-1"},
		{"crash", "-crashes", "0"},
		{"torture", "-crashes", "-5"},
		{"torture", "-seed", "-1"},
		{"torture", "-intensity", "0"},
		{"torture", "-intensity", "-0.5"},
		{"torture", "-budgets", "-1"},
	}
	for _, args := range cases {
		if err := validate(parse(t, args...)); err == nil {
			t.Errorf("validate accepted %v", args)
		}
	}
}

// TestThreadsFlagLimit: -threads past the simulated machine's core
// limit fails validation with an error naming the limit.
func TestThreadsFlagLimit(t *testing.T) {
	if err := validate(parse(t, "experiments", "-threads", "64")); err != nil {
		t.Errorf("-threads 64 rejected: %v", err)
	}
	err := validate(parse(t, "experiments", "-threads", "65", "-ops", "3", "-benchmarks", "queue", "-design", "intel-x86,strandweaver"))
	if err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("-threads 65: error = %v, want one naming the 64-core limit", err)
	}
}

func TestValidateRejectsUnknownBenchmark(t *testing.T) {
	err := validate(parse(t, "torture", "-benchmarks", "queue,nosuch"))
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The error must name the offender and list the valid set.
	if !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("error does not name the unknown benchmark: %v", err)
	}
	if !strings.Contains(err.Error(), "queue") || !strings.Contains(err.Error(), "hashmap") {
		t.Errorf("error does not list valid benchmarks: %v", err)
	}
	// And the known subset passes.
	if err := validate(parse(t, "torture", "-benchmarks", "queue,hashmap")); err != nil {
		t.Errorf("valid subset rejected: %v", err)
	}
}

func TestDesignFlag(t *testing.T) {
	o := parse(t, "experiments", "-design", "EADR, intel-x86")
	if len(o.designs) != 2 || o.designs[0] != sw.EADR || o.designs[1] != sw.IntelX86 {
		t.Errorf("parsed designs = %v", o.designs)
	}
	if _, err := parseArgs([]string{"experiments", "-design", "warp-drive"}, os.Stderr); err == nil {
		t.Error("unknown design accepted")
	} else if !strings.Contains(err.Error(), "eadr") {
		t.Errorf("design error does not list the valid set: %v", err)
	}
	// Default: no restriction (harness falls back to all designs).
	if o := parse(t, "experiments"); len(o.designs) != 0 {
		t.Errorf("default designs = %v, want none", o.designs)
	}
}

func TestValidateRejectsUnknownCommand(t *testing.T) {
	if err := validate(options{cmd: "fig11", threads: 1, ops: 1, crashes: 1, intensity: 1}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestParseArgsRequiresCommand(t *testing.T) {
	if _, err := parseArgs(nil, os.Stderr); err == nil {
		t.Error("empty command line accepted")
	}
	if _, err := parseArgs([]string{"-threads", "4"}, os.Stderr); err == nil {
		t.Error("flag before experiment name accepted")
	}
}

func TestParallelFlags(t *testing.T) {
	if got := parse(t, "experiments", "-parallel", "4").parallel; got != 4 {
		t.Errorf("-parallel 4 workers = %d, want 4", got)
	}
	// 0 delegates the worker count to the sweep engine (GOMAXPROCS).
	if got := parse(t, "experiments").parallel; got != 0 {
		t.Errorf("default workers = %d, want 0", got)
	}
	if err := validate(parse(t, "experiments", "-parallel", "-2")); err == nil {
		t.Error("negative -parallel accepted")
	}
	if err := validate(parse(t, "torture", "-serial-check")); err == nil {
		t.Error("-serial-check accepted outside experiments")
	}
	if err := validate(parse(t, "experiments", "-serial-check")); err != nil {
		t.Errorf("experiments -serial-check rejected: %v", err)
	}
}

func TestTortureDefaultsAreScaledDown(t *testing.T) {
	o := parse(t, "torture")
	if o.threads != 2 || o.ops != 10 || o.crashes != 12 {
		t.Errorf("torture defaults = threads %d, ops %d, crashes %d; want 2, 10, 12",
			o.threads, o.ops, o.crashes)
	}
	e := parse(t, "crash")
	if e.threads != 8 || e.ops != 250 || e.crashes != 20 {
		t.Errorf("crash defaults = threads %d, ops %d, crashes %d; want 8, 250, 20",
			e.threads, e.ops, e.crashes)
	}
}

func TestFuzzFlagValidation(t *testing.T) {
	// Defaults are valid (covered by TestValidateAcceptsDefaults too).
	if err := validate(parse(t, "fuzz")); err != nil {
		t.Fatalf("fuzz defaults rejected: %v", err)
	}
	good := [][]string{
		{"fuzz", "-schedules", "32", "-target", "undolog"},
		{"fuzz", "-target", "undolog,redolog,queue"},
		{"fuzz", "-mutate", "no-data-flush"},
		{"fuzz", "-schedules", "0", "-duration", "5s"},
		{"fuzz", "-repro", "x.repro", "-minimize"},
		{"fuzz", "-schedules", "0", "-repro", "x.repro"},
	}
	for _, args := range good {
		if err := validate(parse(t, args...)); err != nil {
			t.Errorf("validate rejected %v: %v", args, err)
		}
	}
	bad := [][]string{
		{"fuzz", "-schedules", "-1"},
		{"fuzz", "-schedules", "0"}, // unbounded without -duration
		{"fuzz", "-duration", "-3s"},
		{"fuzz", "-minimize"}, // -minimize without -repro
		{"fuzz", "-mutate", "nosuch"},
		{"fuzz", "-target", "undolog,nosuch"},
	}
	for _, args := range bad {
		if err := validate(parse(t, args...)); err == nil {
			t.Errorf("validate accepted %v", args)
		}
	}

	// Target and mutant errors must name the offender and the valid set.
	err := validate(parse(t, "fuzz", "-target", "nosuch"))
	if err == nil || !strings.Contains(err.Error(), "nosuch") || !strings.Contains(err.Error(), "undolog") {
		t.Errorf("target error unhelpful: %v", err)
	}
	err = validate(parse(t, "fuzz", "-mutate", "bogus"))
	if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), sw.FuzzMutantNoDataFlush) {
		t.Errorf("mutant error unhelpful: %v", err)
	}
}

func TestControllersFlagValidation(t *testing.T) {
	for _, n := range []string{"1", "2", "4", "8"} {
		for _, cmd := range []string{"experiments", "torture", "fuzz", "crash"} {
			if err := validate(parse(t, cmd, "-controllers", n)); err != nil {
				t.Errorf("%s -controllers %s rejected: %v", cmd, n, err)
			}
		}
	}
	bad := [][]string{
		{"torture", "-controllers", "0"},
		{"torture", "-controllers", "-2"},
		{"experiments", "-controllers", "3"},
		{"fuzz", "-controllers", "6"},
	}
	for _, args := range bad {
		err := validate(parse(t, args...))
		if err == nil {
			t.Errorf("validate accepted %v", args)
			continue
		}
		if !strings.Contains(err.Error(), "power of two") {
			t.Errorf("%v: error does not explain the power-of-two rule: %v", args, err)
		}
	}
}
