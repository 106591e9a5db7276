package relax

import (
	"strings"
	"testing"

	"strandweaver/internal/backend"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/persistcheck"
	"strandweaver/internal/pmo"
	"strandweaver/internal/redolog"
	"strandweaver/internal/undolog"
)

const testPairs = 2 // matches the lint CLI's representative transaction

func undoStream(t *testing.T, d hwdesign.Design) persistcheck.Stream {
	t.Helper()
	plan, err := backend.PlanFor(d)
	if err != nil {
		t.Fatalf("PlanFor(%s): %v", d, err)
	}
	return undolog.AnalysisStream(d, plan, testPairs)
}

func redoStream(t *testing.T, d hwdesign.Design) persistcheck.Stream {
	t.Helper()
	plan, err := backend.PlanFor(d)
	if err != nil {
		t.Fatalf("PlanFor(%s): %v", d, err)
	}
	return redolog.AnalysisStream(d, plan, testPairs)
}

// TestIntelUndoRediscovery is the issue's headline gate: starting from
// the Intel-style undo recipe (4 stalling SFENCEs, 24 must edges at
// pairs=2), the optimizer must land at or below the hand-written
// strand recipe — at most 1 stalling barrier and at most 21 must
// edges — with every step oracle-validated.
func TestIntelUndoRediscovery(t *testing.T) {
	res, err := OptimizeStream(undoStream(t, hwdesign.IntelX86))
	if err != nil {
		t.Fatalf("OptimizeStream: %v", err)
	}
	if res.Status != StatusOptimized {
		t.Fatalf("status = %s, want optimized\n%s", res.Status, res)
	}
	if !res.Validated {
		t.Fatalf("final program not validated\n%s", res)
	}
	if res.Initial.StallBarriers != 4 || res.Initial.MustEdges != 24 {
		t.Errorf("initial = %d stalls / %d edges, want 4 / 24 (PR 5 baseline)",
			res.Initial.StallBarriers, res.Initial.MustEdges)
	}
	if res.Final.StallBarriers > 1 {
		t.Errorf("final stalls = %d, want <= 1\n%s", res.Final.StallBarriers, res)
	}
	if res.Final.MustEdges > 21 {
		t.Errorf("final must edges = %d, want <= 21\n%s", res.Final.MustEdges, res)
	}
	if len(res.Steps) == 0 {
		t.Errorf("no steps recorded for a 4->%d stall reduction", res.Final.StallBarriers)
	}
	for _, s := range res.Steps {
		if s.OracleDelta < 0 {
			t.Errorf("step %d shrank the oracle set by %d: not a relaxation", s.Index, -s.OracleDelta)
		}
	}
}

// TestOptimizeAllDesigns runs the optimizer over undo+redo recipes of
// every registered design and pins the expected outcome per class.
func TestOptimizeAllDesigns(t *testing.T) {
	for _, d := range hwdesign.All {
		for _, engine := range []string{"undo", "redo"} {
			var s persistcheck.Stream
			if engine == "undo" {
				s = undoStream(t, d)
			} else {
				s = redoStream(t, d)
			}
			t.Run(s.Name, func(t *testing.T) {
				res, err := OptimizeStream(s)
				if err != nil {
					t.Fatalf("OptimizeStream: %v", err)
				}
				switch {
				case d.PersistAtVisibility():
					if res.Status != StatusVisibilityOrdered {
						t.Fatalf("status = %s, want visibility-ordered", res.Status)
					}
				case d == hwdesign.NonAtomic:
					// No ordering primitives at all: the declared
					// requirements fail before any rewrite.
					if res.Status != StatusUnsatisfiable {
						t.Fatalf("status = %s, want unsatisfiable\n%s", res.Status, res)
					}
				default:
					if res.Status != StatusOptimized {
						t.Fatalf("status = %s, want optimized\n%s", res.Status, res)
					}
					if !res.Validated {
						t.Fatalf("not validated\n%s", res)
					}
					// The durable barrier is pinned, so at least one
					// stalling barrier always survives; the optimizer
					// must reach exactly that floor for undo recipes on
					// ordering-primitive designs... except HOPS, whose
					// undo recipe ends with a second pinned durability
					// point (RegionEnd's dfence).
					if engine == "undo" {
						want := 1
						if d == hwdesign.HOPS {
							want = 2
						}
						if res.Final.StallBarriers != want {
							t.Errorf("final stalls = %d, want %d\n%s", res.Final.StallBarriers, want, res)
						}
					}
					if res.Final.StallBarriers > res.Initial.StallBarriers {
						t.Errorf("optimizer added stalls: %d -> %d", res.Initial.StallBarriers, res.Final.StallBarriers)
					}
					if res.Final.MustEdges > res.Initial.MustEdges {
						t.Errorf("optimizer added edges: %d -> %d", res.Initial.MustEdges, res.Final.MustEdges)
					}
				}
			})
		}
	}
}

// TestStrandRecipeAtFloor pins that the hand-written strand recipe is
// near-minimal: the optimizer can shed redundant strand annotations
// but must not find a lower stalling-barrier count than the recipe
// already has (1: the durable JoinStrand).
func TestStrandRecipeAtFloor(t *testing.T) {
	res, err := OptimizeStream(undoStream(t, hwdesign.StrandWeaver))
	if err != nil {
		t.Fatalf("OptimizeStream: %v", err)
	}
	if res.Status != StatusOptimized {
		t.Fatalf("status = %s\n%s", res.Status, res)
	}
	if res.Initial.StallBarriers != 1 {
		t.Errorf("strand recipe initial stalls = %d, want 1", res.Initial.StallBarriers)
	}
	if res.Final.StallBarriers != 1 {
		t.Errorf("final stalls = %d, want 1 (durable barrier pinned)", res.Final.StallBarriers)
	}
	if res.Final.MustEdges > res.Initial.MustEdges {
		t.Errorf("edges grew: %d -> %d", res.Initial.MustEdges, res.Final.MustEdges)
	}
}

// TestDeterministicLog renders the same input twice and requires
// byte-identical relaxation logs — the acceptance criterion the CI
// smoke step re-checks end to end.
func TestDeterministicLog(t *testing.T) {
	for _, d := range []hwdesign.Design{hwdesign.IntelX86, hwdesign.StrandWeaver, hwdesign.HOPS} {
		a, err := OptimizeStream(undoStream(t, d))
		if err != nil {
			t.Fatalf("run 1 (%s): %v", d, err)
		}
		b, err := OptimizeStream(undoStream(t, d))
		if err != nil {
			t.Fatalf("run 2 (%s): %v", d, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: two runs rendered different logs:\n--- run 1\n%s\n--- run 2\n%s", d, a, b)
		}
	}
}

// TestDurablePinning checks both pinning rules directly: a JS labelled
// DurableLabel survives even with later stores, and a trailing JS
// survives unlabelled.
func TestDurablePinning(t *testing.T) {
	p := pmo.Program{{
		pmo.St(0, 1),
		pmo.Op{Kind: pmo.KJS, Label: persistcheck.DurableLabel},
		pmo.St(1, 2),
		pmo.JS(), // trailing: pure durability point
	}}
	res, err := Optimize(Input{Name: "pinning", Program: p})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Final.StallBarriers != 2 {
		t.Fatalf("final stalls = %d, want 2 (both pinned)\n%s", res.Final.StallBarriers, res)
	}
	// Without the label, the mid-program JS is fair game: no
	// requirement binds the stores, so it should be relaxed away.
	q := pmo.Program{{pmo.St(0, 1), pmo.JS(), pmo.St(1, 2), pmo.JS()}}
	res, err = Optimize(Input{Name: "unpinned", Program: q})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Final.StallBarriers != 1 {
		t.Fatalf("final stalls = %d, want 1 (only the trailing JS pinned)\n%s", res.Final.StallBarriers, res)
	}
}

// TestAlreadyMinimal: a program with no removable ordering comes back
// optimized with zero steps.
func TestAlreadyMinimal(t *testing.T) {
	p := pmo.Program{{pmo.St(0, 1), pmo.PB(), pmo.St(1, 2)}}
	reqs := []Requirement{{Before: pmo.StoreRef{Thread: 0, Ord: 0}, After: pmo.StoreRef{Thread: 0, Ord: 1}}}
	res, err := Optimize(Input{Name: "minimal", Program: p, Requires: reqs})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Status != StatusOptimized || len(res.Steps) != 0 {
		t.Fatalf("status=%s steps=%d, want optimized with 0 steps\n%s", res.Status, len(res.Steps), res)
	}
}

// TestUnsatisfiable: requirements that do not hold initially are a
// status, not an error, and the program comes back untouched.
func TestUnsatisfiable(t *testing.T) {
	p := pmo.Program{{pmo.St(0, 1), pmo.St(1, 2)}} // no ordering at all
	reqs := []Requirement{{Before: pmo.StoreRef{Thread: 0, Ord: 0}, After: pmo.StoreRef{Thread: 0, Ord: 1}}}
	res, err := Optimize(Input{Name: "unsat", Program: p, Requires: reqs})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Status != StatusUnsatisfiable {
		t.Fatalf("status = %s, want unsatisfiable", res.Status)
	}
	if len(res.Steps) != 0 {
		t.Fatalf("unsatisfiable input has %d steps", len(res.Steps))
	}
	if !strings.Contains(res.Note, "before any rewrite") {
		t.Errorf("note %q does not explain the status", res.Note)
	}
}

// TestBadRequirementRef: a requirement naming a missing store is a
// malformed input, reported as an error.
func TestBadRequirementRef(t *testing.T) {
	p := pmo.Program{{pmo.St(0, 1)}}
	_, err := Optimize(Input{Name: "bad", Program: p, Requires: []Requirement{
		{Before: pmo.StoreRef{Thread: 0, Ord: 0}, After: pmo.StoreRef{Thread: 0, Ord: 7}},
	}})
	if err == nil {
		t.Fatal("Optimize accepted a requirement naming a nonexistent store")
	}
}

// TestRelaxFindsStrandSplit pins the search's strand-splitting move on
// a minimal example: two independent persist chains serialized by a
// PersistBarrier are split onto separate strands, removing the
// cross-chain edges.
func TestRelaxFindsStrandSplit(t *testing.T) {
	// t0: ST a; PB; ST b — requirement only within... no requirement
	// at all, so the barrier's edge a->b is removable. But deletion
	// alone does it; to force a split to be the winning move, require
	// a->b AND add an unrelated store pair behind the same barrier.
	p := pmo.Program{{pmo.St(0, 1), pmo.St(1, 2), pmo.PB(), pmo.St(0, 3), pmo.St(1, 4)}}
	reqs := []Requirement{
		// loc0's first store must persist before loc0's second.
		{Before: pmo.StoreRef{Thread: 0, Ord: 0}, After: pmo.StoreRef{Thread: 0, Ord: 2}},
	}
	res, err := Optimize(Input{Name: "split", Program: p, Requires: reqs})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Status != StatusOptimized || !res.Validated {
		t.Fatalf("status=%s validated=%v\n%s", res.Status, res.Validated, res)
	}
	// The barrier must survive in some form (the requirement spans
	// it), but the must-edge count must drop: initial PB orders both
	// ord-0 and ord-1 before both ord-2 and ord-3 (4 edges plus the 2
	// same-location edges); splitting loc1's chain onto its own strand
	// sheds its cross edges.
	if res.Final.MustEdges >= res.Initial.MustEdges {
		t.Errorf("must edges did not drop: %d -> %d\n%s", res.Initial.MustEdges, res.Final.MustEdges, res)
	}
	if err := Validate(p, reqs, res.Program); err != nil {
		t.Errorf("Validate rejects the optimizer's own output: %v", err)
	}
}

// TestOptimizeLimitsAreErrors: programs beyond the crash-cut oracle's
// limits come back as errors that name the limit, never as panics.
func TestOptimizeLimitsAreErrors(t *testing.T) {
	// stores returns n stores to loc (or to distinct locations when
	// loc < 0), each behind a NewStrand so no two are ordered.
	stores := func(n, loc int, val uint64) []pmo.Op {
		var ops []pmo.Op
		for i := 0; i < n; i++ {
			l := loc
			if l < 0 {
				l = i
			}
			ops = append(ops, pmo.St(l, val+uint64(i)), pmo.NS())
		}
		return ops
	}
	for _, c := range []struct {
		name string
		p    pmo.Program
		want string
	}{
		{"65 stores", pmo.Program{stores(65, -1, 1)}, "limited to 64 stores"},
		{"conflicting interleavings", pmo.Program{stores(8, 0, 1), stores(8, 0, 101), stores(8, 0, 201)}, "the cap is 131072"},
		{"crash cuts", pmo.Program{stores(23, -1, 1)}, "more than 4194304 crash cuts"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Optimize(Input{Name: c.name, Program: c.p})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Optimize error = %v, want one containing %q", err, c.want)
			}
			if err := Validate(c.p, nil, c.p); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

func BenchmarkOptimizeIntelUndo(b *testing.B) {
	plan, err := backend.PlanFor(hwdesign.IntelX86)
	if err != nil {
		b.Fatal(err)
	}
	s := undolog.AnalysisStream(hwdesign.IntelX86, plan, testPairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeStream(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeAllSubjects optimizes the undo and redo recipes of
// every design at four pairs: the benchmark's relax pass.
func BenchmarkOptimizeAllSubjects(b *testing.B) {
	var streams []persistcheck.Stream
	for _, d := range hwdesign.All {
		plan, err := backend.PlanFor(d)
		if err != nil {
			b.Fatal(err)
		}
		streams = append(streams, undolog.AnalysisStream(d, plan, 4), redolog.AnalysisStream(d, plan, 4))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range streams {
			if _, err := OptimizeStream(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
