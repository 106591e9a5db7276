// Package relax is the auto-relaxation optimizer: a search-based
// transformation pass that rewrites a strand-persistency program to
// the minimal ordering annotations that still satisfy its declared
// persist-order requirements. It closes the loop the static analyzer
// (internal/persistcheck) opens — where persistcheck reports
// over-ordering advisories and leaves the rewrite to a human, relax
// applies the rewrites mechanically and proves every step against the
// exact crash-cut oracle (pmo.CutMasks: every crash cut the paper's
// Equations 1-4 allow, as sorted store masks).
//
// The search is greedy first-improvement over a fixed transform
// enumeration (docs/DETERMINISM.md):
//
//  1. delete the barriers persistcheck flags as redundant (its
//     must-edge builder is the candidate generator: a zero-edge
//     barrier's deletion cannot change the persist order);
//  2. demote each strand-insensitive fence (JS: JoinStrand, SFENCE,
//     DFENCE) to a strand-scoped PersistBarrier — non-stalling, and
//     edge-identical until a NewStrand appears in scope;
//  3. delete each remaining barrier;
//  4. split strands: insert a NewStrand at each program position.
//
// A candidate is accepted only when (a) its allowed persist sets are
// a superset of the current program's — a transform may only relax,
// never forbid a crash state the model allowed — and (b) every
// declared requirement still holds in the candidate's allowed sets,
// and (c) the cost tuple (stalling barriers, must edges, barriers)
// strictly decreases lexicographically. The cost order is
// well-founded, so the search terminates; the accepted steps form the
// relaxation log.
//
// Durability points are pinned: a stalling barrier labelled
// persistcheck.DurableLabel, or one with no later persists in its
// thread, guarantees "everything so far is durable before the program
// proceeds" — a contract with the caller that the crash-cut model
// cannot express as an inter-store requirement — and is never
// demoted or deleted.
package relax

import (
	"fmt"

	"strandweaver/internal/persistcheck"
	"strandweaver/internal/pmo"
)

// Requirement is one persist-order obligation over the abstract
// program, by stable store ordinal (pmo.StoreRef survives every
// transform).
type Requirement struct {
	Before pmo.StoreRef `json:"before"`
	After  pmo.StoreRef `json:"after"`
	// BeforeLabel/AfterLabel carry source store labels for
	// diagnostics, when the input came from a labelled stream.
	BeforeLabel string `json:"before_label,omitempty"`
	AfterLabel  string `json:"after_label,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

func (r Requirement) String() string {
	if r.BeforeLabel != "" && r.AfterLabel != "" {
		return fmt.Sprintf("%q -> %q", r.BeforeLabel, r.AfterLabel)
	}
	return fmt.Sprintf("%s -> %s", r.Before, r.After)
}

// Input is one optimization subject.
type Input struct {
	Name     string
	Program  pmo.Program
	Requires []Requirement
}

// Status classifies an optimization outcome.
type Status uint8

const (
	// StatusOptimized means the search ran to a fixed point; Steps
	// holds the accepted transforms (possibly none, when the input was
	// already minimal).
	StatusOptimized Status = iota
	// StatusVisibilityOrdered marks inputs whose persist order is the
	// visibility order (eADR): there are no ordering annotations to
	// relax.
	StatusVisibilityOrdered
	// StatusUnsatisfiable marks inputs whose declared requirements do
	// not hold even before any rewrite (e.g. a non-crash-consistent
	// recipe): there is nothing sound to search from.
	StatusUnsatisfiable
)

var statusNames = [...]string{
	StatusOptimized:         "optimized",
	StatusVisibilityOrdered: "visibility-ordered",
	StatusUnsatisfiable:     "unsatisfiable",
}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// MarshalJSON renders the status as its name.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", s.String())), nil
}

// TransformKind enumerates the rewrite moves.
type TransformKind uint8

const (
	// KindDelete removes a barrier op.
	KindDelete TransformKind = iota
	// KindDemote replaces a strand-insensitive fence (JS) with a
	// strand-scoped PersistBarrier.
	KindDemote
	// KindSplit inserts a NewStrand, splitting the surrounding strand.
	KindSplit
)

var kindNames = [...]string{KindDelete: "delete", KindDemote: "demote-to-pb", KindSplit: "new-strand"}

func (k TransformKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("TransformKind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name.
func (k TransformKind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// Step is one accepted, oracle-validated transform of the relaxation
// log.
type Step struct {
	// Index numbers the step from 1.
	Index int           `json:"step"`
	Kind  TransformKind `json:"transform"`
	// Thread and Pos locate the transform in the program the step was
	// applied to (for KindSplit, the insertion position).
	Thread int `json:"thread"`
	Pos    int `json:"pos"`
	// Op renders the op acted on (the deleted/demoted barrier; "NS"
	// for a split).
	Op string `json:"op"`
	// Barriers/StallBarriers/MustEdges describe the program after the
	// step.
	Barriers      int `json:"barriers"`
	StallBarriers int `json:"stall_barriers"`
	MustEdges     int `json:"must_edges"`
	// BarriersEliminated and EdgesRemoved are this step's deltas
	// (stalling barriers and must-persist-before store pairs shed).
	BarriersEliminated int `json:"barriers_eliminated"`
	EdgesRemoved       int `json:"edges_removed"`
	// OracleSets counts the model-allowed crash cuts after the step;
	// OracleDelta is the growth over the previous program (a
	// relaxation only ever adds allowed cuts).
	OracleSets  int `json:"oracle_sets"`
	OracleDelta int `json:"oracle_delta"`
}

// Summary describes one program's ordering footprint.
type Summary struct {
	Ops           int `json:"ops"`
	Barriers      int `json:"barriers"`
	StallBarriers int `json:"stall_barriers"`
	MustEdges     int `json:"must_edges"`
	// OracleSets counts the model-allowed crash cuts.
	OracleSets int `json:"oracle_sets"`
}

// Result is one subject's relaxation outcome.
type Result struct {
	Name   string `json:"name"`
	Status Status `json:"status"`
	// Note explains non-optimized statuses.
	Note    string  `json:"note,omitempty"`
	Initial Summary `json:"initial"`
	Final   Summary `json:"final"`
	Steps   []Step  `json:"steps,omitempty"`
	// Program is the final rewritten program; Rendered is its litmus
	// notation (the JSON form carries only the rendering).
	Program  pmo.Program `json:"-"`
	Rendered string      `json:"program,omitempty"`
	// Validated is set when the whole-run Validate pass (same stores,
	// allowed-set superset, requirements hold) confirmed the final
	// program against the input.
	Validated bool `json:"validated"`
}

// maxSteps caps the search length far above any real program; the
// lexicographic cost order already guarantees termination.
const maxSteps = 1024

// oracle is one program's allowed crash cuts: pmo.CutMasks, sorted
// store masks in (thread, ordinal) numbering. Every rewrite keeps the
// stores, so a bit names the same store in every program of a run.
type oracle []uint64

func enumerate(p pmo.Program) (oracle, error) { return pmo.CutMasks(p) }

// covers reports whether o allows every cut of sub: a merge of the two
// sorted families.
func (o oracle) covers(sub oracle) bool {
	i := 0
	for _, m := range sub {
		for i < len(o) && o[i] < m {
			i++
		}
		if i == len(o) || o[i] != m {
			return false
		}
	}
	return true
}

// reqBit is a requirement resolved onto mask bits; ok is false when it
// names a store the program does not have.
type reqBit struct {
	before, after uint64
	ok            bool
}

func resolve(p pmo.Program, reqs []Requirement) []reqBit {
	out := make([]reqBit, len(reqs))
	for i, r := range reqs {
		b, bok := pmo.MaskBit(p, r.Before)
		a, aok := pmo.MaskBit(p, r.After)
		out[i] = reqBit{before: 1 << b, after: 1 << a, ok: bok && aok}
	}
	return out
}

// violated returns the (input-order) indexes of requirements that some
// allowed cut breaks: the cut contains After without Before.
func violated(o oracle, reqs []reqBit) []int {
	var out []int
	for i, r := range reqs {
		if !r.ok {
			out = append(out, i)
			continue
		}
		for _, m := range o {
			if m&r.after != 0 && m&r.before == 0 {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// cost is the lexicographic objective: stalling barriers first (they
// serialize the core), then must-persist-before edges (the ordering
// the hardware must enforce), then total barriers (program size).
type cost struct{ stalls, edges, barriers int }

func (c cost) less(d cost) bool {
	if c.stalls != d.stalls {
		return c.stalls < d.stalls
	}
	if c.edges != d.edges {
		return c.edges < d.edges
	}
	return c.barriers < d.barriers
}

// measure runs the static analyzer over the program for the step
// metrics: the persist-order DAG's store-pair count and the barrier
// census. For single-threaded programs the static relation is exact;
// for multi-threaded ones it is the must projection — the oracle
// acceptance test is always the exact enumeration either way.
func measure(p pmo.Program) (*persistcheck.Report, cost) {
	rep := persistcheck.AnalyzeProgram("relax", p)
	return rep, cost{stalls: rep.StallBarriers, edges: rep.MustEdges, barriers: rep.Barriers}
}

func isBarrier(k pmo.Kind) bool { return k == pmo.KPB || k == pmo.KNS || k == pmo.KJS }

// pinned reports whether the op at (t, i) is a pinned durability
// point: a stalling barrier (JS) that either carries the durable
// label or has no later persists in its thread. Both guarantee
// durability to the surrounding program, which no inter-store
// requirement captures, so the optimizer must not weaken them.
func pinned(p pmo.Program, t, i int) bool {
	op := p[t][i]
	if op.Kind != pmo.KJS {
		return false
	}
	if op.Label == persistcheck.DurableLabel {
		return true
	}
	for j := i + 1; j < len(p[t]); j++ {
		if p[t][j].Kind == pmo.KStore {
			return false
		}
	}
	return true
}

// candidate is one enumerated transform.
type candidate struct {
	kind       TransformKind
	thread, at int
}

func (c candidate) apply(p pmo.Program) pmo.Program {
	switch c.kind {
	case KindDelete:
		return p.WithoutOp(c.thread, c.at)
	case KindDemote:
		return p.WithOp(c.thread, c.at, pmo.Op{Kind: pmo.KPB})
	case KindSplit:
		return p.WithInsert(c.thread, c.at, pmo.Op{Kind: pmo.KNS})
	}
	panic("relax: unknown transform kind")
}

func (c candidate) render(p pmo.Program) string {
	if c.kind == KindSplit {
		return "NS"
	}
	return p[c.thread][c.at].String()
}

// candidates enumerates every transform of the program in the fixed
// order the relaxation log is byte-stable under (docs/DETERMINISM.md):
// analyzer-flagged redundant-barrier deletions first (findings are
// sorted by thread and index), then demotions, deletions and strand
// splits, each in (thread, position) order.
func candidates(p pmo.Program, rep *persistcheck.Report) []candidate {
	var out []candidate
	for _, f := range rep.Findings {
		if f.Class != persistcheck.ClassRedundantBarrier || f.Severity != persistcheck.SevWarn {
			continue
		}
		t, i := f.Thread, f.Index
		if t < len(p) && i < len(p[t]) && isBarrier(p[t][i].Kind) && !pinned(p, t, i) {
			out = append(out, candidate{kind: KindDelete, thread: t, at: i})
		}
	}
	for t, ops := range p {
		for i, op := range ops {
			if op.Kind == pmo.KJS && !pinned(p, t, i) {
				out = append(out, candidate{kind: KindDemote, thread: t, at: i})
			}
		}
	}
	for t, ops := range p {
		for i, op := range ops {
			if isBarrier(op.Kind) && !pinned(p, t, i) {
				out = append(out, candidate{kind: KindDelete, thread: t, at: i})
			}
		}
	}
	for t, ops := range p {
		for i := 0; i <= len(ops); i++ {
			out = append(out, candidate{kind: KindSplit, thread: t, at: i})
		}
	}
	return out
}

func summary(p pmo.Program, rep *persistcheck.Report, o oracle) Summary {
	ops := 0
	for _, t := range p {
		ops += len(t)
	}
	return Summary{
		Ops:           ops,
		Barriers:      rep.Barriers,
		StallBarriers: rep.StallBarriers,
		MustEdges:     rep.MustEdges,
		OracleSets:    len(o),
	}
}

// Optimize searches for the minimal-ordering rewrite of the input
// program whose allowed persist sets still satisfy every declared
// requirement, proving each accepted step (and the final program)
// against the exact crash-cut oracle. It returns an error for
// malformed inputs (a requirement naming a store the program does not
// have) and for programs past the oracle's limits (more than
// pmo.MaxMaskStores stores, too many interleavings of its stores, or
// too many allowed cuts); unsatisfiable requirements are a
// Status, not an error.
func Optimize(in Input) (*Result, error) {
	for _, r := range in.Requires {
		if _, ok := pmo.StoreIDOf(in.Program, r.Before); !ok {
			return nil, fmt.Errorf("relax: %s: requirement %s: no store %s", in.Name, r, r.Before)
		}
		if _, ok := pmo.StoreIDOf(in.Program, r.After); !ok {
			return nil, fmt.Errorf("relax: %s: requirement %s: no store %s", in.Name, r, r.After)
		}
	}

	cur := in.Program.Clone()
	curOracle, err := enumerate(cur)
	if err != nil {
		return nil, fmt.Errorf("relax: %s: %w", in.Name, err)
	}
	reqs := resolve(cur, in.Requires)
	curRep, curCost := measure(cur)
	res := &Result{Name: in.Name, Initial: summary(cur, curRep, curOracle)}

	if bad := violated(curOracle, reqs); len(bad) > 0 {
		res.Status = StatusUnsatisfiable
		res.Note = fmt.Sprintf("input violates %d of its %d declared requirements before any rewrite (first: %s); nothing sound to relax",
			len(bad), len(in.Requires), in.Requires[bad[0]])
		res.Final = res.Initial
		res.Program = cur
		res.Rendered = cur.String()
		return res, nil
	}

	for len(res.Steps) < maxSteps {
		applied := false
		for _, c := range candidates(cur, curRep) {
			cand := c.apply(cur)
			candRep, candCost := measure(cand)
			if !candCost.less(curCost) {
				continue
			}
			candOracle, err := enumerate(cand)
			if err != nil {
				return nil, fmt.Errorf("relax: %s: %w", in.Name, err)
			}
			// Soundness gate 1: a transform may only relax — every
			// crash cut the model allowed must stay allowed.
			if !candOracle.covers(curOracle) {
				continue
			}
			// Soundness gate 2: the exact oracle still excludes every
			// crash cut a declared requirement forbids.
			if len(violated(candOracle, reqs)) > 0 {
				continue
			}
			res.Steps = append(res.Steps, Step{
				Index:              len(res.Steps) + 1,
				Kind:               c.kind,
				Thread:             c.thread,
				Pos:                c.at,
				Op:                 c.render(cur),
				Barriers:           candRep.Barriers,
				StallBarriers:      candRep.StallBarriers,
				MustEdges:          candRep.MustEdges,
				BarriersEliminated: curRep.StallBarriers - candRep.StallBarriers,
				EdgesRemoved:       curRep.MustEdges - candRep.MustEdges,
				OracleSets:         len(candOracle),
				OracleDelta:        len(candOracle) - len(curOracle),
			})
			cur, curOracle, curRep, curCost = cand, candOracle, candRep, candCost
			applied = true
			break
		}
		if !applied {
			break
		}
	}

	res.Status = StatusOptimized
	res.Final = summary(cur, curRep, curOracle)
	res.Program = cur
	res.Rendered = cur.String()
	if err := Validate(in.Program, in.Requires, cur); err != nil {
		// Unreachable when the per-step gates hold; a failure here is
		// an optimizer bug and must not be reported as a valid result.
		return nil, fmt.Errorf("relax: %s: final validation failed: %w", in.Name, err)
	}
	res.Validated = true
	return res, nil
}

// Validate proves a rewritten program sound against its original: the
// stores are unchanged, the rewritten program's allowed persist sets
// are a superset of the original's (the rewrite only relaxed), and
// every declared requirement still holds exactly. It is the
// whole-run check Optimize runs over its own output, and the
// conviction test for unsound external rewrites.
func Validate(orig pmo.Program, reqs []Requirement, rewritten pmo.Program) error {
	if !pmo.SameStores(orig, rewritten) {
		return fmt.Errorf("rewritten program changes the stores; only barrier structure may differ")
	}
	origCuts, err := enumerate(orig)
	if err != nil {
		return err
	}
	o, err := enumerate(rewritten)
	if err != nil {
		return err
	}
	if !o.covers(origCuts) {
		return fmt.Errorf("rewritten program forbids a crash cut the original allowed (%d sets vs %d): not a relaxation", len(o), len(origCuts))
	}
	if bad := violated(o, resolve(rewritten, reqs)); len(bad) > 0 {
		return fmt.Errorf("rewritten program violates requirement %s: a model-allowed crash cut persists %s without %s",
			reqs[bad[0]], reqs[bad[0]].After, reqs[bad[0]].Before)
	}
	return nil
}

// OptimizeStream lowers an analyzable ISA stream (a logging recipe's
// emit-for-analysis output) to the abstract model and optimizes it.
// Visibility-ordered streams (eADR) come back StatusVisibilityOrdered
// without a search: their persist order is the visibility order and
// they carry no ordering annotations to relax.
func OptimizeStream(s persistcheck.Stream) (*Result, error) {
	if s.PersistAtVisibility {
		return &Result{
			Name:   s.Name,
			Status: StatusVisibilityOrdered,
			Note:   "persist order is visibility order (persist-at-visibility design); no ordering annotations to relax",
		}, nil
	}
	prog, areqs, err := persistcheck.AbstractStream(s)
	if err != nil {
		return nil, err
	}
	reqs := make([]Requirement, len(areqs))
	for i, r := range areqs {
		reqs[i] = Requirement{
			Before: r.Before, After: r.After,
			BeforeLabel: r.BeforeLabel, AfterLabel: r.AfterLabel,
			Reason: r.Reason,
		}
	}
	return Optimize(Input{Name: s.Name, Program: prog, Requires: reqs})
}
