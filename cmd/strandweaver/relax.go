package main

// The relax command runs the search-based auto-relaxation optimizer
// (internal/relax) over the undo- and redo-log recipe streams of every
// hardware design: each program is rewritten to minimal strand
// annotations, with every rewrite step proved against the crash cuts
// the formal model allows. It prints the per-subject relaxation logs
// plus a summary table, and with -gate exits non-zero unless the
// optimizer rediscovers the strand recipe from the Intel undo baseline
// (at most one stalling barrier, at most the hand-written recipe's 21
// must edges).
//
// Like lint, this command reaches under the facade: the optimizer's
// inputs (ordering plans, emit-for-analysis streams) are internal
// seams, not public simulation API.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"strandweaver/internal/backend"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/persistcheck"
	"strandweaver/internal/redolog"
	"strandweaver/internal/relax"
	"strandweaver/internal/undolog"
)

// relaxGateStalls/relaxGateEdges are the -gate thresholds on the Intel
// undo recipe at lintPairs: the hand-written strand recipe's footprint
// (1 stalling barrier, 21 must edges). The optimizer currently beats
// the edge bound (20), but the gate pins "no worse than the recipe a
// human wrote".
const (
	relaxGateStalls = 1
	relaxGateEdges  = 21
)

// relaxOutput is the -json document.
type relaxOutput struct {
	Results []*relax.Result `json:"results"`
}

// relaxResults optimizes the undo and redo recipe streams of every
// design, in hwdesign.All order (undo before redo per design) — the
// fixed subject order the output is byte-stable under.
func relaxResults() (*relaxOutput, error) {
	out := &relaxOutput{}
	for _, d := range hwdesign.All {
		plan, err := backend.PlanFor(d)
		if err != nil {
			return nil, err
		}
		for _, s := range []persistcheck.Stream{
			undolog.AnalysisStream(d, plan, lintPairs),
			redolog.AnalysisStream(d, plan, lintPairs),
		} {
			res, err := relax.OptimizeStream(s)
			if err != nil {
				return nil, err
			}
			out.Results = append(out.Results, res)
		}
	}
	return out, nil
}

// printRelaxSummary renders the cross-design table: initial and final
// ordering footprint per subject.
func printRelaxSummary(w io.Writer, results []*relax.Result) {
	fmt.Fprintln(w, "Auto-relaxation summary (stalls and must edges: initial -> final)")
	fmt.Fprintf(w, "  %-24s %-19s %6s %14s %12s %9s\n",
		"subject", "status", "steps", "stall barriers", "must edges", "validated")
	for _, r := range results {
		if r.Status == relax.StatusVisibilityOrdered {
			fmt.Fprintf(w, "  %-24s %-19s %6s %14s %12s %9s\n", r.Name, r.Status, "-", "-", "-", "-")
			continue
		}
		validated := "no"
		if r.Validated {
			validated = "yes"
		}
		fmt.Fprintf(w, "  %-24s %-19s %6d %7d -> %3d %5d -> %3d %9s\n",
			r.Name, r.Status, len(r.Steps),
			r.Initial.StallBarriers, r.Final.StallBarriers,
			r.Initial.MustEdges, r.Final.MustEdges, validated)
	}
}

// relaxGateCheck enforces the rediscovery gate on a result list.
func relaxGateCheck(results []*relax.Result) error {
	name := fmt.Sprintf("undolog/%s", hwdesign.IntelX86)
	for _, r := range results {
		if r.Name != name {
			continue
		}
		if r.Status != relax.StatusOptimized || !r.Validated {
			return fmt.Errorf("relax gate: %s: status %s, validated %v", name, r.Status, r.Validated)
		}
		if r.Final.StallBarriers > relaxGateStalls || r.Final.MustEdges > relaxGateEdges {
			return fmt.Errorf("relax gate: %s optimized to %d stalls / %d must edges, want <= %d / <= %d (hand-written strand recipe)",
				name, r.Final.StallBarriers, r.Final.MustEdges, relaxGateStalls, relaxGateEdges)
		}
		return nil
	}
	return fmt.Errorf("relax gate: no result for %s", name)
}

func runRelax(o options) error {
	out, err := relaxResults()
	if err != nil {
		return err
	}
	if o.lintJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, r := range out.Results {
			fmt.Print(r)
			fmt.Println()
		}
		printRelaxSummary(os.Stdout, out.Results)
	}
	if o.relaxGate {
		if err := relaxGateCheck(out.Results); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "[relax gate passed: intel undo recipe rediscovered at <= 1 stalling barrier]")
	}
	return nil
}
