// Package persistcheck is a static persist-order analyzer: it takes an
// abstract strand-persistency program (internal/pmo) or a recorded ISA
// instruction stream (the emit-for-analysis mode of the undo/redo-log
// runtimes) and, without simulating anything, constructs the prescribed
// must-persist-before DAG of the paper's Equations 1-4 per thread, then
// reports crash-vulnerability and over-ordering findings:
//
//   - unpersisted stores: PM stores with no flush covering them
//     (a crash may lose them forever);
//   - missing ordering: a declared persist-order requirement (log
//     before update, updates before commit marker, ...) that no
//     barrier path discharges, i.e. a reachable crash state where the
//     dependent store lands without its prerequisite;
//   - redundant barriers: ordering primitives contributing zero
//     must-persist-before edges, plus a barrier-relaxation advisory
//     quantifying how many of a full barrier's edges a NewStrand/
//     JoinStrand rewrite could drop;
//   - strand misuse: JoinStrand with no preceding NewStrand, barriers
//     at the start of an empty strand, degenerate NewStrand;JoinStrand
//     pairs.
//
// The static relation is deliberately a *must* relation: it contains an
// edge a -> b only when every execution the formal model allows
// persists a before b. The differential tests cross-validate this
// against pmo.AllowedPersistSets on the standard litmus programs and on
// randomized programs: no model-allowed crash cut may contain b without
// a for any static edge a -> b.
package persistcheck

import (
	"encoding/json"
	"fmt"

	"strandweaver/internal/isa"
	"strandweaver/internal/pmo"
)

// Severity grades a finding. The lint CLI exits non-zero when any
// finding reaches its -severity threshold.
type Severity uint8

const (
	// SevInfo is advisory: nothing is wrong, but ordering could relax.
	SevInfo Severity = iota
	// SevWarn marks wasted work or suspicious structure that cannot
	// lose data.
	SevWarn
	// SevError marks a crash vulnerability: a reachable post-crash
	// state violates the declared recipe invariants.
	SevError
)

var severityNames = [...]string{SevInfo: "info", SevWarn: "warn", SevError: "error"}

func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// ParseSeverity returns the severity named s ("info", "warn", "error").
func ParseSeverity(s string) (Severity, error) {
	for sev, n := range severityNames {
		if n == s {
			return Severity(sev), nil
		}
	}
	return 0, fmt.Errorf("persistcheck: unknown severity %q (valid: info, warn, error)", s)
}

// Class enumerates the four finding classes.
type Class uint8

const (
	// ClassUnpersistedStore is a PM store never covered by a flush.
	ClassUnpersistedStore Class = iota
	// ClassMissingOrdering is a declared requirement with no
	// must-persist-before path.
	ClassMissingOrdering
	// ClassRedundantBarrier is an ordering primitive contributing zero
	// edges, or (advisory) more edges than the recipe requires.
	ClassRedundantBarrier
	// ClassStrandMisuse is a structurally suspicious use of the strand
	// primitives.
	ClassStrandMisuse
)

var classNames = [...]string{
	ClassUnpersistedStore: "unpersisted-store",
	ClassMissingOrdering:  "missing-ordering",
	ClassRedundantBarrier: "redundant-barrier",
	ClassStrandMisuse:     "strand-misuse",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// MarshalJSON renders the class as its name.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// Finding is one analyzer diagnostic, anchored at an op.
type Finding struct {
	Class    Class    `json:"class"`
	Severity Severity `json:"severity"`
	// Thread and Index locate the op (Index is the op's position in
	// its thread's stream).
	Thread int `json:"thread"`
	Index  int `json:"index"`
	// Op renders the op in litmus notation (`ST "data0"`, `SFENCE`).
	Op      string `json:"op"`
	Message string `json:"message"`
	// Contributed/Required/Excess quantify a barrier's edges for
	// redundant-barrier findings: how many must-persist-before store
	// pairs the barrier creates, how many of those the declared
	// requirements need, and the difference a strand rewrite could
	// relax.
	Contributed int `json:"contributed_edges,omitempty"`
	Required    int `json:"required_edges,omitempty"`
	Excess      int `json:"excess_edges,omitempty"`
	// Suggestion is the advisor's rewrite hint.
	Suggestion string `json:"suggestion,omitempty"`
}

// Requirement declares one persist-order obligation of a logging
// recipe: the store labelled Before must persist before the store
// labelled After in every crash state. Recipes declare these; the
// analyzer checks them against the static DAG.
type Requirement struct {
	Before string `json:"before"`
	After  string `json:"after"`
	// Reason names the invariant the requirement protects.
	Reason string `json:"reason"`
}

// DurableLabel marks a barrier op as a durability point: a contract
// that every prior persist is durable before the program proceeds
// (before CommitUpTo returns, before locks release). The label rides
// on isa.Op.Label through the lowering so the auto-relaxation
// optimizer (internal/relax) knows the barrier's stall is
// load-bearing even when no declared inter-store requirement needs
// it. The logging runtimes' emit-for-analysis streams apply it to
// their plan.Durable emission.
const DurableLabel = "durable"

// Stream is an analyzable ISA instruction stream: a recorded (or
// recipe-emitted) sequence of ops with the persist-order obligations it
// must uphold.
type Stream struct {
	// Name identifies the stream in reports.
	Name string
	// Ops is the instruction stream; Op.Thread assigns each op to its
	// thread. Non-PM data ops and compute are ignored.
	Ops []isa.Op
	// Requires lists the declared persist-order obligations.
	Requires []Requirement
	// PersistAtVisibility marks streams for designs whose visibility
	// order is the persist order (eADR): stores need no flush and every
	// same-thread store pair is must-ordered.
	PersistAtVisibility bool
}

// Report is the analyzer's structured result for one program or
// stream.
type Report struct {
	Name string `json:"name"`
	// Counters describing the analyzed shape.
	Threads  int `json:"threads"`
	Stores   int `json:"stores"`
	Loads    int `json:"loads"`
	Barriers int `json:"barriers"`
	// StallBarriers counts the barriers that stall the issuing core
	// until a drain completes (SFENCE, DFENCE, JoinStrand) — the
	// expensive ones a strand rewrite tries to eliminate.
	StallBarriers int `json:"stall_barriers"`
	// MustEdges is the number of store pairs in the transitive
	// must-persist-before relation.
	MustEdges int `json:"must_edges"`
	// RequiredEdges is the number of store pairs the declared
	// requirements (transitively) demand.
	RequiredEdges int       `json:"required_edges"`
	Findings      []Finding `json:"findings"`
}

// Counts returns the number of findings at each severity.
func (r *Report) Counts() (errs, warns, infos int) {
	for _, f := range r.Findings {
		switch f.Severity {
		case SevError:
			errs++
		case SevWarn:
			warns++
		default:
			infos++
		}
	}
	return
}

// MaxSeverity returns the highest severity present, or SevInfo when
// the report is clean.
func (r *Report) MaxSeverity() Severity {
	max := SevInfo
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max
}

// Relaxation quantifies how much persist ordering a design's logging
// recipe imposes relative to the intelx86 baseline recipe for the same
// logical transaction. Positive values mean the design is more relaxed
// than Intel's SFENCE recipe.
type Relaxation struct {
	Design string `json:"design"`
	// Barriers and StallBarriers count the recipe's ordering
	// primitives (all, and core-stalling only).
	Barriers      int `json:"barriers"`
	StallBarriers int `json:"stall_barriers"`
	// MustEdges is the recipe DAG's ordered store-pair count.
	MustEdges int `json:"must_edges"`
	// BarriersEliminated is the count of core-stalling barriers the
	// design avoids relative to the baseline recipe. It is clamped at
	// zero: ordering the design adds over the baseline is reported in
	// BarriersAdded, never as a negative elimination.
	BarriersEliminated int `json:"barriers_eliminated"`
	// EdgesRemoved is how many must-persist-before pairs the design's
	// recipe sheds relative to the baseline recipe, clamped at zero
	// (see EdgesAdded).
	EdgesRemoved int `json:"edges_removed"`
	// BarriersAdded and EdgesAdded count the ordering this recipe
	// imposes over the baseline — nonzero when the comparison is
	// inverted, i.e. the baseline is the more relaxed side (e.g.
	// eADR's visibility order prescribes more edges than Intel's
	// SFENCE recipe).
	BarriersAdded int `json:"barriers_added,omitempty"`
	EdgesAdded    int `json:"edges_added,omitempty"`
	// Inverted flags a comparison where the recipe has more stalling
	// barriers or more must edges than its baseline.
	Inverted bool `json:"inverted,omitempty"`
}

// RelaxationVs computes the relaxation metrics of report r against the
// baseline report (conventionally the intelx86 recipe) for the same
// logical recipe. A comparison against a more relaxed baseline never
// yields negative counts: the surplus ordering is reported in
// BarriersAdded/EdgesAdded and the Relaxation is flagged Inverted.
func (r *Report) RelaxationVs(base *Report, design string) Relaxation {
	rx := Relaxation{
		Design:        design,
		Barriers:      r.Barriers,
		StallBarriers: r.StallBarriers,
		MustEdges:     r.MustEdges,
	}
	if d := base.StallBarriers - r.StallBarriers; d >= 0 {
		rx.BarriersEliminated = d
	} else {
		rx.BarriersAdded = -d
	}
	if d := base.MustEdges - r.MustEdges; d >= 0 {
		rx.EdgesRemoved = d
	} else {
		rx.EdgesAdded = -d
	}
	rx.Inverted = rx.BarriersAdded > 0 || rx.EdgesAdded > 0
	return rx
}

// stalling reports whether the barrier kind stalls the issuing core
// for a drain (the expensive primitives; NS/PB/OFENCE are fire-and-
// forget).
func stalling(k isa.OpKind) bool {
	switch k {
	case isa.OpSFence, isa.OpDFence, isa.OpJoinStrand:
		return true
	}
	return false
}

// AnalyzeProgram statically analyzes an abstract pmo program. Abstract
// stores are persists (the flush is implicit) and carry no declared
// requirements, so only the redundant-barrier and strand-misuse
// classes can fire.
func AnalyzeProgram(name string, p pmo.Program) *Report {
	rep, err := analyze(name, fromProgram(p), nil, false)
	if err != nil {
		// Unreachable: with no requirements there are no labels to
		// resolve.
		panic(err)
	}
	return rep
}

// Footprint is the part of a Report that needs no finding pass: the
// op census and the size of the must-persist-before relation.
type Footprint struct {
	Stores, Loads int
	// Barriers counts every ordering primitive; StallBarriers the ones
	// that stall the core (see Report).
	Barriers, StallBarriers int
	// MustEdges is the number of store pairs in the must relation.
	MustEdges int
}

// ProgramOrder returns an abstract program's must-persist-before
// relation over its stores, numbered in (thread, ordinal) order, and
// the footprint AnalyzeProgram reports for it. It runs one
// pmo.Builder.MustOrder and the census, and none of the finding passes
// (each of which closes the relation again per barrier), so it is the
// cheap way to price and compare many rewrites of one program.
func ProgramOrder(p pmo.Program) (*pmo.Relation, Footprint) {
	order := pmo.NewBuilder(p).MustOrder(false, nil)
	fp := Footprint{MustEdges: order.Pairs()}
	for _, ops := range p {
		for _, op := range ops {
			// The ops fromProgram lowers, with their mnemonics.
			if int(op.Kind) < len(srcOf) {
				fp.count(op.Kind, srcOf[op.Kind])
			}
		}
	}
	return order, fp
}

// AnalyzeStream statically analyzes an ISA instruction stream with its
// declared persist-order requirements. It returns an error only for
// malformed inputs (a requirement naming a label the stream never
// stores, or ambiguous duplicate labels); analysis findings are
// reported in the Report, never as errors.
func AnalyzeStream(s Stream) (*Report, error) {
	threads, err := lowerISA(s.Ops)
	if err != nil {
		return nil, fmt.Errorf("persistcheck: %s: %w", s.Name, err)
	}
	if s.PersistAtVisibility {
		for _, ops := range threads {
			for i := range ops {
				if ops[i].kind == pmo.KStore {
					ops[i].flushed = true
				}
			}
		}
	}
	rep, err := analyze(s.Name, threads, s.Requires, s.PersistAtVisibility)
	if err != nil {
		return nil, fmt.Errorf("persistcheck: %s: %w", s.Name, err)
	}
	return rep, nil
}

// MustEdges returns the static must-persist-before relation of an
// abstract program: store pairs (a, b) such that every model-allowed
// execution persists a before b. This is the analyzer-side half of the
// static/dynamic differential check.
func MustEdges(p pmo.Program) [][2]pmo.StoreID {
	g := buildGraph(fromProgram(p), false)
	var out [][2]pmo.StoreID
	for ui, u := range g.stores {
		for vi, v := range g.stores {
			if g.order.Has(ui, vi) {
				out = append(out, [2]pmo.StoreID{
					{Thread: u.thread, Index: u.pos},
					{Thread: v.thread, Index: v.pos},
				})
			}
		}
	}
	return out
}
