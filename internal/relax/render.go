package relax

// Deterministic text rendering of a relaxation log. The output is
// byte-stable across runs: it derives only from the Result, whose
// every field is produced by the fixed-order search, so two runs over
// the same input render identical logs (the CI smoke step diffs them).

import (
	"fmt"
	"strings"

	"strandweaver/internal/pmo"
)

// setsText renders an oracle-set count: ">4194304" when it was past
// the cap and not enumerated.
func setsText(n int) string {
	if n == NotEnumerated {
		return fmt.Sprintf(">%d", pmo.MaxCuts)
	}
	return fmt.Sprint(n)
}

// String renders the relaxation log: header, initial footprint, one
// line per accepted step with its oracle-set delta, final footprint,
// and the rewritten program in litmus notation.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "relax %s: %s\n", r.Name, r.Status)
	if r.Note != "" {
		fmt.Fprintf(&b, "  note: %s\n", r.Note)
	}
	if r.Status == StatusVisibilityOrdered {
		return b.String()
	}
	fmt.Fprintf(&b, "  initial: ops=%d barriers=%d stalls=%d must-edges=%d oracle-sets=%s\n",
		r.Initial.Ops, r.Initial.Barriers, r.Initial.StallBarriers, r.Initial.MustEdges, setsText(r.Initial.OracleSets))
	for _, s := range r.Steps {
		delta := "n/a"
		if s.OracleDelta != NotEnumerated {
			delta = fmt.Sprintf("%+d", s.OracleDelta)
		}
		fmt.Fprintf(&b, "  step %d: %s t%d@%d %s -> stalls=%d must-edges=%d barriers=%d (eliminated=%d edges-removed=%d oracle-sets=%s delta=%s)\n",
			s.Index, s.Kind, s.Thread, s.Pos, s.Op,
			s.StallBarriers, s.MustEdges, s.Barriers,
			s.BarriersEliminated, s.EdgesRemoved, setsText(s.OracleSets), delta)
	}
	fmt.Fprintf(&b, "  final: ops=%d barriers=%d stalls=%d must-edges=%d oracle-sets=%s",
		r.Final.Ops, r.Final.Barriers, r.Final.StallBarriers, r.Final.MustEdges, setsText(r.Final.OracleSets))
	if r.Status == StatusOptimized {
		fmt.Fprintf(&b, " (stalls -%d, must-edges -%d, steps %d",
			r.Initial.StallBarriers-r.Final.StallBarriers,
			r.Initial.MustEdges-r.Final.MustEdges, len(r.Steps))
		if r.Validated {
			b.WriteString(", validated")
		}
		b.WriteString(")")
	}
	b.WriteByte('\n')
	if r.Rendered != "" {
		fmt.Fprintf(&b, "  program:\n")
		for _, line := range strings.Split(r.Rendered, "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
