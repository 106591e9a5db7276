package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"strandweaver/internal/sweep"
)

// workload is one benchmark input set. A run repeats its pass with one
// seed; a traced run prepares the workload once and then runs its
// layer pipeline untraced and traced.
type workload struct {
	name string
	// seed is the pinned default: the pinned-output checks apply at it.
	seed int64
	// nominal is one pass's wall time on the reference host (2 CPUs);
	// it only sizes how many passes a run makes (passesFor).
	nominal time.Duration
	// setup builds the workload's starting state once, for workloads
	// whose pass builds it inside one call into the program; a run
	// times it setupReps times before its first pass. Nil when the pass
	// times its own set-up (passResult.setup).
	setup     func(sc scale, seed int64) error
	setupReps int
	pass      func(sc scale, seed int64) (*passResult, error)
	// layers prepares a traced run and returns the pipeline to time,
	// plus the untraced pass the preparation ran, if any, whose
	// counters the traced run reports. The pipeline records spans into
	// rec when rec is non-nil.
	layers func(sc scale, seed int64) (pipeline func(rec *recorder) (*passResult, error), base *passResult, err error)
}

// allWorkloads lists the benchmark's workloads in run order.
var allWorkloads = []*workload{gridWorkload, tortureWorkload, fuzzWorkload, relaxWorkload}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// scale sizes every workload. defaultScale is the benchmark; the tests
// use smokeScale.
type scale struct {
	gridThreads, gridOps int
	gridBenchmarks       []string // nil: all of Table II

	tortureThreads, tortureOps, tortureCrashes int
	tortureBenchmarks                          []string

	fuzzSchedules int
	relaxPairs    int

	// replayCuts is the traced torture replay's cuts per benchmark x
	// plan; replayExecs the traced fuzz replay's corpus entries.
	replayCuts, replayExecs int

	// pin enables the pinned-output checks (default scale at the
	// workload's pinned seed).
	pin bool
}

var defaultScale = scale{
	gridThreads: 8, gridOps: 250,
	tortureThreads: 8, tortureOps: 250, tortureCrashes: 32,
	tortureBenchmarks: []string{"queue", "hashmap", "rbtree"},
	fuzzSchedules:     2048,
	relaxPairs:        4,
	replayCuts:        8, replayExecs: 256,
}

// passResult is one pass (or one traced pipeline run).
type passResult struct {
	wall time.Duration
	// setup holds set-up time samples; ops each operation's wall time.
	setup []time.Duration
	ops   []time.Duration
	// attempted counts checked outputs; failures describes each one
	// that was wrong (errors, violations, pinned-output mismatches).
	attempted int
	failures  []string
	// engine folds the sim counters of every machine.Run the pass made,
	// with the sweep engine's merge rule; only its Engine field is used.
	engine sweep.CellMetrics
	// counters are per-layer metrics the pass measured.
	counters map[string]float64
	summary  string
}

func (p *passResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// check counts one pinned or seed-independent output check.
func (p *passResult) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.fail(format, args...)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest-percentile sample with at least ten
// samples beyond it, and how many are beyond it (the maximum, with
// none beyond, when there are fewer than eleven samples).
func tailOf(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 11 {
		return s[len(s)-1], 0
	}
	return s[len(s)-11], 10
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, clamping included, which is how run-to-run
// spread is judged.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
