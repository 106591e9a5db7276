// Package relax is the auto-relaxation optimizer: a search-based
// transformation pass that rewrites a strand-persistency program to
// the minimal ordering annotations that still satisfy its declared
// persist-order requirements. It closes the loop the static analyzer
// (internal/persistcheck) opens — where persistcheck reports
// over-ordering advisories and leaves the rewrite to a human, relax
// applies the rewrites mechanically and proves every step against the
// crash cuts the paper's Equations 1-4 allow.
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
// A candidate is accepted only when (a) the cost tuple (stalling
// barriers, must edges, barriers) strictly decreases
// lexicographically, (b) it allows every crash cut the current program
// allows — a transform may only relax, never forbid a crash state the
// model allowed — and (c) every declared requirement still holds in
// every cut it allows. The cost order is well-founded, so the search
// terminates; the accepted steps form the relaxation log.
//
// How (b) and (c) are proved depends on the stores, which no rewrite
// changes. When they sit on at most one thread there is one visibility
// order, and the allowed cuts are exactly the downsets of the closed
// store order (persistcheck.ProgramOrder): (b) is order inclusion and
// (c) one bit per requirement, with no limit on program size. When
// they sit on several threads the gates compare pmo.CutMasks families,
// which hold at most pmo.MaxMaskStores stores, 2^17 store
// interleavings and pmo.MaxCuts cuts.
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
	// relaxation only ever adds allowed cuts). Either is
	// NotEnumerated (-1) when a count involved is past pmo.MaxCuts.
	OracleSets  int `json:"oracle_sets"`
	OracleDelta int `json:"oracle_delta"`
}

// Summary describes one program's ordering footprint.
type Summary struct {
	Ops           int `json:"ops"`
	Barriers      int `json:"barriers"`
	StallBarriers int `json:"stall_barriers"`
	MustEdges     int `json:"must_edges"`
	// OracleSets counts the model-allowed crash cuts, or is
	// NotEnumerated (-1) past pmo.MaxCuts.
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

// NotEnumerated is the OracleSets of a program whose allowed cuts
// outnumber pmo.MaxCuts, and the OracleDelta of a step either side of
// which is past that cap: the count was not enumerated.
const NotEnumerated = -1

// version is one program of a run with the evidence the gates read:
// its must order over the stores ((thread, ordinal) numbering, so a
// row or bit names the same store in every rewrite of the run), its
// footprint, and on the mask route its allowed cuts.
type version struct {
	prog pmo.Program
	must *pmo.Relation
	fp   persistcheck.Footprint
	cuts []uint64
}

// measure prices a program: one persistcheck.ProgramOrder.
func measure(p pmo.Program) *version {
	must, fp := persistcheck.ProgramOrder(p)
	return &version{prog: p, must: must, fp: fp}
}

// cost is the lexicographic objective: stalling barriers first (they
// serialize the core), then must-persist-before edges (the ordering
// the hardware must enforce), then total barriers (program size).
type cost struct{ stalls, edges, barriers int }

func (v *version) cost() cost {
	return cost{stalls: v.fp.StallBarriers, edges: v.fp.MustEdges, barriers: v.fp.Barriers}
}

func (c cost) less(d cost) bool {
	if c.stalls != d.stalls {
		return c.stalls < d.stalls
	}
	if c.edges != d.edges {
		return c.edges < d.edges
	}
	return c.barriers < d.barriers
}

// reqPair is a requirement resolved onto store numbers; ok is false
// when it names a store the program does not have.
type reqPair struct {
	before, after int
	ok            bool
}

// oracle proves the rewrites of one run against the model's crash
// cuts. Every rewrite keeps the stores, so the input program fixes the
// route:
//
//   - Stores on at most one thread have one visibility order, and the
//     allowed cuts are exactly the downsets of the closed store order.
//     Then Cuts(Q) ⊇ Cuts(P) exactly when Q ⊆ P as relations, and
//     every cut holding b holds a exactly when a = b or a <_Q b. Both
//     gates are bitset tests on the must order the cost already needs,
//     and no store, interleaving or cut limit applies.
//   - Stores on several threads make the allowed cuts a union over
//     interleavings, where order inclusion is sound but not complete.
//     There the gates compare pmo.CutMasks families, within their
//     limits.
type oracle struct {
	masks bool
	// storeThread is the one thread with stores, on the order route.
	storeThread int
	reqs        []reqPair
}

func newOracle(p pmo.Program, reqs []Requirement) *oracle {
	o := &oracle{reqs: make([]reqPair, len(reqs))}
	threads := 0
	for t, ops := range p {
		for _, op := range ops {
			if op.Kind == pmo.KStore {
				threads++
				o.storeThread = t
				break
			}
		}
	}
	o.masks = threads > 1
	for i, r := range reqs {
		b, bok := pmo.MaskBit(p, r.Before)
		a, aok := pmo.MaskBit(p, r.After)
		o.reqs[i] = reqPair{before: b, after: a, ok: bok && aok}
	}
	return o
}

// enumerate lists v's allowed cuts on the mask route.
func (o *oracle) enumerate(v *version) error {
	if !o.masks {
		return nil
	}
	cuts, err := pmo.CutMasks(v.prog)
	v.cuts = cuts
	return err
}

// relaxes reports whether cand allows every crash cut cur allows.
func (o *oracle) relaxes(cur, cand *version) bool {
	if !o.masks {
		return cand.must.SubsetOf(cur.must)
	}
	// A merge of the two sorted families.
	i := 0
	for _, m := range cur.cuts {
		for i < len(cand.cuts) && cand.cuts[i] < m {
			i++
		}
		if i == len(cand.cuts) || cand.cuts[i] != m {
			return false
		}
	}
	return true
}

// holds reports whether every allowed cut of v that holds r.after
// holds r.before.
func (o *oracle) holds(v *version, r reqPair) bool {
	if !o.masks {
		return r.before == r.after || v.must.Has(r.before, r.after)
	}
	before, after := uint64(1)<<r.before, uint64(1)<<r.after
	for _, m := range v.cuts {
		if m&after != 0 && m&before == 0 {
			return false
		}
	}
	return true
}

// violated returns the (input-order) indexes of the requirements some
// allowed cut of v breaks: the cut holds After without Before.
func (o *oracle) violated(v *version) []int {
	var out []int
	for i, r := range o.reqs {
		if !r.ok || !o.holds(v, r) {
			out = append(out, i)
		}
	}
	return out
}

// sets counts v's allowed cuts, or returns NotEnumerated past
// pmo.MaxCuts.
func (o *oracle) sets(v *version) int {
	if o.masks {
		return len(v.cuts)
	}
	if n, ok := v.must.Downsets(); ok {
		return n
	}
	return NotEnumerated
}

// growth is a step's OracleDelta.
func growth(from, to int) int {
	if from == NotEnumerated || to == NotEnumerated {
		return NotEnumerated
	}
	return to - from
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

func summary(v *version, sets int) Summary {
	ops := 0
	for _, t := range v.prog {
		ops += len(t)
	}
	return Summary{
		Ops:           ops,
		Barriers:      v.fp.Barriers,
		StallBarriers: v.fp.StallBarriers,
		MustEdges:     v.fp.MustEdges,
		OracleSets:    sets,
	}
}

// Optimize searches for the minimal-ordering rewrite of the input
// program whose allowed persist sets still satisfy every declared
// requirement, proving each accepted step (and the final program)
// against the model's crash cuts. Each candidate costs one
// persistcheck.ProgramOrder; the full analyzer runs only on accepted
// programs, whose findings rank the next step's candidates.
//
// A program with stores on at most one thread is proved by order
// inclusion and has no size limit. One with stores on several threads
// is proved on pmo.CutMasks and is held to its limits: at most
// pmo.MaxMaskStores stores, 2^17 interleavings of its stores and
// pmo.MaxCuts allowed cuts. Optimize returns an error for a program
// past a limit and for a malformed input (a requirement naming a
// store the program does not have); unsatisfiable requirements are a
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

	o := newOracle(in.Program, in.Requires)
	cur := measure(in.Program.Clone())
	if err := o.enumerate(cur); err != nil {
		return nil, fmt.Errorf("relax: %s: %w", in.Name, err)
	}
	curSets := o.sets(cur)
	res := &Result{Name: in.Name, Initial: summary(cur, curSets)}

	if bad := o.violated(cur); len(bad) > 0 {
		res.Status = StatusUnsatisfiable
		res.Note = fmt.Sprintf("input violates %d of its %d declared requirements before any rewrite (first: %s); nothing sound to relax",
			len(bad), len(in.Requires), in.Requires[bad[0]])
		res.Final = res.Initial
		res.Program = cur.prog
		res.Rendered = cur.prog.String()
		return res, nil
	}

	curRep := persistcheck.AnalyzeProgram("relax", cur.prog)
	for len(res.Steps) < maxSteps {
		applied := false
		for _, c := range candidates(cur.prog, curRep) {
			cand := measure(c.apply(cur.prog))
			if !cand.cost().less(cur.cost()) {
				continue
			}
			if err := o.enumerate(cand); err != nil {
				return nil, fmt.Errorf("relax: %s: %w", in.Name, err)
			}
			// Soundness gate 1: a transform may only relax — every
			// crash cut the model allowed must stay allowed.
			if !o.relaxes(cur, cand) {
				continue
			}
			// Soundness gate 2: the candidate's cuts still exclude
			// every crash cut a declared requirement forbids.
			if len(o.violated(cand)) > 0 {
				continue
			}
			sets := o.sets(cand)
			res.Steps = append(res.Steps, Step{
				Index:              len(res.Steps) + 1,
				Kind:               c.kind,
				Thread:             c.thread,
				Pos:                c.at,
				Op:                 c.render(cur.prog),
				Barriers:           cand.fp.Barriers,
				StallBarriers:      cand.fp.StallBarriers,
				MustEdges:          cand.fp.MustEdges,
				BarriersEliminated: cur.fp.StallBarriers - cand.fp.StallBarriers,
				EdgesRemoved:       cur.fp.MustEdges - cand.fp.MustEdges,
				OracleSets:         sets,
				OracleDelta:        growth(curSets, sets),
			})
			cur, curSets = cand, sets
			curRep = persistcheck.AnalyzeProgram("relax", cur.prog)
			applied = true
			break
		}
		if !applied {
			break
		}
	}

	res.Status = StatusOptimized
	res.Final = summary(cur, curSets)
	res.Program = cur.prog
	res.Rendered = cur.prog.String()
	if err := Validate(in.Program, in.Requires, cur.prog); err != nil {
		// Unreachable when the per-step gates hold; a failure here is
		// an optimizer bug and must not be reported as a valid result.
		return nil, fmt.Errorf("relax: %s: final validation failed: %w", in.Name, err)
	}
	res.Validated = true
	return res, nil
}

// Validate proves a rewritten program sound against its original: the
// stores are unchanged, the rewritten program allows every crash cut
// the original allows (the rewrite only relaxed), and every declared
// requirement still holds exactly. It takes Optimize's route: order
// inclusion when the stores sit on at most one thread, pmo.CutMasks
// families within their limits otherwise. It is the whole-run check
// Optimize runs over its own output, and the conviction test for
// unsound external rewrites.
func Validate(orig pmo.Program, reqs []Requirement, rewritten pmo.Program) error {
	if !pmo.SameStores(orig, rewritten) {
		return fmt.Errorf("rewritten program changes the stores; only barrier structure may differ")
	}
	o := newOracle(orig, reqs)
	before, after := measure(orig), measure(rewritten)
	if err := o.enumerate(before); err != nil {
		return err
	}
	if err := o.enumerate(after); err != nil {
		return err
	}
	if !o.relaxes(before, after) {
		if o.masks {
			return fmt.Errorf("rewritten program forbids a crash cut the original allowed (%d sets vs %d): not a relaxation",
				len(after.cuts), len(before.cuts))
		}
		a, b := o.newPair(before, after)
		return fmt.Errorf("rewritten program persists %s before %s, which the original leaves unordered, so it forbids a crash cut the original allowed: not a relaxation",
			a, b)
	}
	if bad := o.violated(after); len(bad) > 0 {
		return fmt.Errorf("rewritten program violates requirement %s: a model-allowed crash cut persists %s without %s",
			reqs[bad[0]], reqs[bad[0]].After, reqs[bad[0]].Before)
	}
	return nil
}

// newPair names a store pair that after orders and before does not,
// on the order route (both orders are over the stores of storeThread).
func (o *oracle) newPair(before, after *version) (pmo.StoreRef, pmo.StoreRef) {
	n := after.fp.Stores
	for b := 0; b < n; b++ {
		for a := 0; a < n; a++ {
			if after.must.Has(a, b) && !before.must.Has(a, b) {
				return pmo.StoreRef{Thread: o.storeThread, Ord: a}, pmo.StoreRef{Thread: o.storeThread, Ord: b}
			}
		}
	}
	panic("relax: newPair called on an included order")
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
	in, err := streamInput(s)
	if err != nil {
		return nil, err
	}
	return Optimize(in)
}

// streamInput lowers a stream to the optimizer's input.
func streamInput(s persistcheck.Stream) (Input, error) {
	prog, areqs, err := persistcheck.AbstractStream(s)
	if err != nil {
		return Input{}, err
	}
	reqs := make([]Requirement, len(areqs))
	for i, r := range areqs {
		reqs[i] = Requirement{
			Before: r.Before, After: r.After,
			BeforeLabel: r.BeforeLabel, AfterLabel: r.AfterLabel,
			Reason: r.Reason,
		}
	}
	return Input{Name: s.Name, Program: prog, Requires: reqs}, nil
}
