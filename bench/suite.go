package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// hostInfo describes where a suite ran.
type hostInfo struct {
	GitRev     string `json:"git_rev,omitempty"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

// suiteFile is a suite's results: every run's raw result line plus,
// per workload and end-to-end metric, the median and quartiles.
type suiteFile struct {
	Host      hostInfo        `json:"host"`
	Seconds   int             `json:"seconds"`
	Rounds    int             `json:"rounds"`
	Workloads []suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Name    string        `json:"name"`
	Seed    int64         `json:"seed"`
	Runs    []runResult   `json:"runs"`
	Metrics []suiteMetric `json:"metrics"`
}

type suiteMetric struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// runSuite runs every workload rounds times, interleaved (one round of
// every workload, then the next), each run in a fresh process of this
// binary, and writes the results to path.
func runSuite(seed int64, seconds, rounds int, path string) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run the suite from the repository root: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sf := &suiteFile{Host: currentHost(), Seconds: seconds, Rounds: rounds}
	sf.Host.GitRev = "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sf.Host.GitRev = string(bytes.TrimSpace(out))
	}
	for _, w := range allWorkloads {
		s := seed
		if s == 0 {
			s = w.seed
		}
		sf.Workloads = append(sf.Workloads, suiteWorkload{Name: w.name, Seed: s})
	}
	for r := 1; r <= rounds; r++ {
		for i := range sf.Workloads {
			sw := &sf.Workloads[i]
			fmt.Fprintf(os.Stderr, "round %d/%d: %s\n", r, rounds, sw.Name)
			res, err := runChild(exe, "-workload", sw.Name, "-seed", strconv.FormatInt(sw.Seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			if err != nil {
				return fmt.Errorf("%s round %d: %w", sw.Name, r, err)
			}
			sw.Runs = append(sw.Runs, *res)
		}
	}
	for i := range sf.Workloads {
		sw := &sf.Workloads[i]
		for _, m := range bf.EndToEnd {
			sm := suiteMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			for _, run := range sw.Runs {
				sm.Values = append(sm.Values, run.Metrics[m.Name].Value)
			}
			q := quartiles(sm.Values)
			sm.Q1, sm.Median, sm.Q3 = q[0], median(sm.Values), q[2]
			sw.Metrics = append(sw.Metrics, sm)
		}
	}
	b, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	printSuite(os.Stdout, sf)
	fmt.Fprintf(os.Stderr, "results written to %s\n", path)
	return nil
}

// runChild runs one workload process and parses its result line.
func runChild(exe string, args ...string) (*runResult, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// currentHost describes this process's host; the suite adds the git
// revision.
func currentHost() hostInfo {
	return hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
}

func printSuite(w io.Writer, sf *suiteFile) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tq1\tq3\tunit\tfailed/attempted\t\n")
	for _, sw := range sf.Workloads {
		failed, attempted := 0, 0
		for _, r := range sw.Runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		for _, m := range sw.Metrics {
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%s\t%d/%d\t\n", sw.Name, m.Name, m.Median, m.Q1, m.Q3, m.Unit, failed, attempted)
		}
	}
	tw.Flush()
}

// compareFiles prints one row per workload x end-to-end metric of two
// suite results: both medians and quartiles, the change, the bound and
// a verdict.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	load := func(path string) (*suiteFile, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var sf suiteFile
		if err := json.Unmarshal(b, &sf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &sf, nil
	}
	oldS, err := load(oldPath)
	if err != nil {
		return err
	}
	newS, err := load(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\told median\told q1-q3\tnew median\tnew q1-q3\tchange\tbound\tverdict\t\n")
	for _, ow := range oldS.Workloads {
		nw := findSuiteWorkload(newS, ow.Name)
		if nw == nil {
			fmt.Fprintf(tw, "%s\t(missing from %s)\t\t\t\t\t\t\t\t\n", ow.Name, newPath)
			continue
		}
		for _, om := range ow.Metrics {
			nm := findSuiteMetric(nw, om.Name)
			if nm == nil {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g-%.4g\t%.4g\t%.4g-%.4g\t%+.2f%%\t%.0f%%\t%s\t\n",
				ow.Name, om.Name, om.Median, om.Q1, om.Q3, nm.Median, nm.Q1, nm.Q3,
				100*(nm.Median-om.Median)/om.Median, 100*om.Bound, verdict(om, *nm))
		}
	}
	return tw.Flush()
}

func findSuiteWorkload(sf *suiteFile, name string) *suiteWorkload {
	for i := range sf.Workloads {
		if sf.Workloads[i].Name == name {
			return &sf.Workloads[i]
		}
	}
	return nil
}

func findSuiteMetric(sw *suiteWorkload, name string) *suiteMetric {
	for i := range sw.Metrics {
		if sw.Metrics[i].Name == name {
			return &sw.Metrics[i]
		}
	}
	return nil
}

// verdict judges a candidate against a base. A metric whose spread (quartile
// distance over median, on either side) is wider than its bound is
// unresolved unless every candidate run beats or trails every base run.
// Otherwise it is worse when the median worsened by more than the
// bound, better when it improved by more than the base spread with
// every candidate run ahead, and within the bound in all other cases.
func verdict(base, cand suiteMetric) string {
	sign := 1.0
	if base.Better == "higher" {
		sign = -1
	}
	worsening := sign * (cand.Median - base.Median) / base.Median
	spread := func(m suiteMetric) float64 { return (m.Q3 - m.Q1) / m.Median }
	ahead, behind := true, true
	for _, o := range base.Values {
		for _, n := range cand.Values {
			if sign*(n-o) >= 0 {
				ahead = false
			}
			if sign*(n-o) <= 0 {
				behind = false
			}
		}
	}
	switch {
	case math.Max(spread(base), spread(cand)) > base.Bound && !ahead && !behind:
		return "unresolved"
	case worsening > base.Bound:
		return "worse"
	case ahead && -worsening > spread(base):
		return "better"
	default:
		return "within"
	}
}
