package relax

import (
	"fmt"
	"testing"
	"time"

	"strandweaver/internal/backend"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/persistcheck"
	"strandweaver/internal/pmo"
	"strandweaver/internal/redolog"
	"strandweaver/internal/undolog"
)

// recipeStreams returns the undo and redo recipe streams of every
// design at the given transaction size, in the relax command's subject
// order.
func recipeStreams(t testing.TB, pairs int) []persistcheck.Stream {
	t.Helper()
	var out []persistcheck.Stream
	for _, d := range hwdesign.All {
		plan, err := backend.PlanFor(d)
		if err != nil {
			t.Fatalf("PlanFor(%s): %v", d, err)
		}
		out = append(out, undolog.AnalysisStream(d, plan, pairs), redolog.AnalysisStream(d, plan, pairs))
	}
	return out
}

// abstractInput is streamInput, failing the test on an error.
func abstractInput(t testing.TB, s persistcheck.Stream) Input {
	t.Helper()
	in, err := streamInput(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return in
}

// replay walks an optimized result's log from its input. Before each
// step, and after the last, it hands visit the current program; it
// then applies the step, checks the logged footprint against the
// rewritten program and Validates the rewrite against its predecessor.
// It ends by checking that the walk reproduces the result's program.
func replay(t *testing.T, in Input, res *Result, visit func(cur pmo.Program)) {
	t.Helper()
	cur := in.Program.Clone()
	for _, s := range res.Steps {
		if visit != nil {
			visit(cur)
		}
		next := candidate{kind: s.Kind, thread: s.Thread, at: s.Pos}.apply(cur)
		_, fp := persistcheck.ProgramOrder(next)
		if fp.StallBarriers != s.StallBarriers || fp.MustEdges != s.MustEdges || fp.Barriers != s.Barriers {
			t.Fatalf("%s step %d: logged stalls/edges/barriers %d/%d/%d, program has %d/%d/%d",
				in.Name, s.Index, s.StallBarriers, s.MustEdges, s.Barriers, fp.StallBarriers, fp.MustEdges, fp.Barriers)
		}
		if err := Validate(cur, in.Requires, next); err != nil {
			t.Fatalf("%s step %d (%s t%d@%d) does not validate against its predecessor: %v",
				in.Name, s.Index, s.Kind, s.Thread, s.Pos, err)
		}
		cur = next
	}
	if visit != nil {
		visit(cur)
	}
	if cur.String() != res.Program.String() {
		t.Fatalf("%s: replaying the log gives\n%s\nbut the result holds\n%s", in.Name, cur, res.Program)
	}
}

// TestRecipeScale relaxes all twelve recipe subjects at pairs 8 and 32,
// past the reach of the cut masks (pairs 32 has more than 100 stores):
// each subject returns its pairs-4 status, every optimized result is
// validated, and every accepted step validates against its
// predecessor.
func TestRecipeScale(t *testing.T) {
	want := map[string]Status{}
	for _, s := range recipeStreams(t, 4) {
		res, err := OptimizeStream(s)
		if err != nil {
			t.Fatalf("%s at pairs 4: %v", s.Name, err)
		}
		want[s.Name] = res.Status
	}
	for _, pairs := range []int{8, 32} {
		t.Run(fmt.Sprintf("pairs%d", pairs), func(t *testing.T) {
			start := time.Now()
			for _, s := range recipeStreams(t, pairs) {
				res, err := OptimizeStream(s)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				if res.Status != want[s.Name] {
					t.Fatalf("%s: status %s, want %s as at pairs 4", s.Name, res.Status, want[s.Name])
				}
				if res.Status != StatusOptimized {
					continue
				}
				if !res.Validated {
					t.Fatalf("%s: not validated", s.Name)
				}
				for _, st := range res.Steps {
					if st.OracleDelta < 0 && st.OracleDelta != NotEnumerated {
						t.Errorf("%s step %d shrank the oracle set by %d: not a relaxation", s.Name, st.Index, -st.OracleDelta)
					}
				}
				replay(t, abstractInput(t, s), res, nil)
				t.Logf("%-26s stalls %d -> %d, must edges %d -> %d, %d steps",
					s.Name, res.Initial.StallBarriers, res.Final.StallBarriers, res.Initial.MustEdges, res.Final.MustEdges, len(res.Steps))
			}
			t.Logf("pairs %d: %v", pairs, time.Since(start))
		})
	}
}
