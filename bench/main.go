// Command strandbench is the repository's benchmark: one process per
// workload run, end-to-end metrics from untraced passes, per-layer
// metrics from a traced run, and a check of every workload's outputs.
//
// Modes (run from the repository root, via bench/run.sh or go run):
//
//	strandbench -workload grid -seed 1 -seconds 20 -trace 0
//	    one workload run; the last stdout line is the result JSON
//	strandbench [-rounds 3] [-out FILE]
//	    every workload, rounds interleaved, each run in a fresh process;
//	    writes medians, quartiles and raw per-round values to FILE
//	strandbench -compare old.json new.json
//	    one row per workload x end-to-end metric with a verdict
//
// See README.md for the workloads, metrics and run protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		wname    = flag.String("workload", "", "run one workload: grid, torture, fuzz or relax (empty: run the suite)")
		seed     = flag.Int64("seed", 0, "workload seed (0: the workload's pinned seed)")
		seconds  = flag.Int("seconds", 20, "run length in seconds; sizes how many passes a run makes")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
		buildDir = flag.String("build-dir", ".bench_build", "directory for traces and suite results")
		rounds   = flag.Int("rounds", 3, "suite: rounds per workload")
		out      = flag.String("out", "", "suite: results file (default <build-dir>/results.json)")
		compare  = flag.Bool("compare", false, "compare two suite result files: -compare old.json new.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files, got %d arguments", flag.NArg())
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *wname != "":
		if *trace != 0 && *trace != 1 {
			err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
			break
		}
		err = runOne(*wname, *seed, *seconds, *trace == 1, filepath.Join(*buildDir, "trace"))
	default:
		path := *out
		if path == "" {
			path = filepath.Join(*buildDir, "results.json")
		}
		err = runSuite(*seed, *seconds, *rounds, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "strandbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a workload run prints as its last line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne executes one workload run and prints its result line.
func runOne(name string, seed int64, seconds int, traced bool, traceDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = w.seed
	}
	sc := defaultScale
	sc.pin = seed == w.seed
	fmt.Fprintf(os.Stderr, "%s: seed %d, host %+v\n", w.name, seed, currentHost())

	var res *runResult
	if traced {
		res, err = traceRun(w, sc, seed, traceDir)
	} else {
		res, err = measureRun(w, sc, seed, passesFor(w, seconds))
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// passesFor sizes a run: as many whole passes as fit the requested
// seconds at the workload's nominal pass time, at least one. The count
// depends on the workload and the run length only, never on how fast
// this build happens to be, so both sides of a comparison do the same
// work.
func passesFor(w *workload, seconds int) int {
	n := int(float64(seconds)/w.nominal.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// measureRun makes the untraced passes and reduces them to the
// end-to-end metrics.
func measureRun(w *workload, sc scale, seed int64, passes int) (*runResult, error) {
	var walls, setups, ops []float64
	res := &runResult{Metrics: map[string]metric{}}
	if w.setup != nil {
		runtime.GC()
		for i := 0; i < w.setupReps; i++ {
			t0 := time.Now()
			if err := w.setup(sc, seed); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	for i := 0; i < passes; i++ {
		runtime.GC() // start every pass from a collected heap
		p, err := w.pass(sc, seed)
		if err != nil {
			return nil, err
		}
		walls = append(walls, p.wall.Seconds())
		for _, s := range p.setup {
			setups = append(setups, s.Seconds())
		}
		for _, o := range p.ops {
			ops = append(ops, float64(o)/1e6)
		}
		res.Attempted += p.attempted
		res.Failed += len(p.failures)
		for _, f := range p.failures {
			fmt.Fprintf(os.Stderr, "%s: pass %d: FAILED: %s\n", w.name, i+1, f)
		}
		fmt.Fprintf(os.Stderr, "%s: pass %d/%d: %.3f s, %d ops, %s\n", w.name, i+1, passes, p.wall.Seconds(), len(p.ops), p.summary)
	}
	tail, beyond := tailOf(ops)
	fmt.Fprintf(os.Stderr, "%s: %d ops; op_tail_ms is the value with %d of %d samples beyond it (p%.2f)\n",
		w.name, len(ops), beyond, len(ops), 100*float64(len(ops)-beyond)/float64(len(ops)))
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["op_p50_ms"] = metric{median(ops), "ms"}
	res.Metrics["op_tail_ms"] = metric{tail, "ms"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	res.Correct = res.Failed == 0
	return res, nil
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
