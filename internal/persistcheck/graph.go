package persistcheck

import (
	"fmt"
	"math/bits"
	"sort"

	"strandweaver/internal/isa"
	"strandweaver/internal/pmo"
)

// irOp is one op of the analyzer's per-thread intermediate form. Its
// kind is the formal model's: barrier kinds collapse to their Equation
// 1-2 edge semantics. pmo.KPB is a strand-scoped barrier
// (PersistBarrier, OFENCE: orders across it unless a NewStrand
// intervenes), pmo.KJS a strand-insensitive one (JoinStrand, SFENCE,
// DFENCE: orders across it unconditionally).
type irOp struct {
	kind pmo.Kind
	// src is the original mnemonic (OpPersistBarrier vs OpOFence, ...)
	// for diagnostics and per-kind policies.
	src isa.OpKind
	// loc is the abstract location (stores and loads).
	loc int
	// label names the op for requirement matching and diagnostics.
	label string
	// flushed marks stores covered by a later flush of their line (or
	// implicitly persistent ones).
	flushed bool
	// thread and pos locate the op in the source program/stream.
	thread, pos int
}

// render prints the op in litmus notation for findings.
func (o irOp) render() string {
	switch o.kind {
	case pmo.KStore, pmo.KLoad:
		if o.label != "" {
			return fmt.Sprintf("%s %q", o.src, o.label)
		}
		return fmt.Sprintf("%s loc%d", o.src, o.loc)
	default:
		return o.src.String()
	}
}

// srcOf is the mnemonic each abstract op kind lowers to.
var srcOf = [...]isa.OpKind{
	pmo.KStore: isa.OpStore,
	pmo.KLoad:  isa.OpLoad,
	pmo.KPB:    isa.OpPersistBarrier,
	pmo.KNS:    isa.OpNewStrand,
	pmo.KJS:    isa.OpJoinStrand,
}

// fromProgram lowers an abstract pmo program to IR: every store is an
// implicitly flushed persist.
func fromProgram(p pmo.Program) [][]irOp {
	threads := make([][]irOp, len(p))
	for t, ops := range p {
		ir := make([]irOp, 0, len(ops))
		for i, op := range ops {
			if int(op.Kind) >= len(srcOf) {
				continue
			}
			ir = append(ir, irOp{
				kind: op.Kind, src: srcOf[op.Kind], loc: op.Loc, label: op.Label,
				flushed: op.Kind == pmo.KStore, thread: t, pos: i,
			})
		}
		threads[t] = ir
	}
	return threads
}

// toProgram lifts the IR to the formal model's abstract program, one
// op per IR op, so IR positions are program indexes. Stores get unique
// values in (thread, program) order; labels carry over.
func toProgram(threads [][]irOp) pmo.Program {
	prog := make(pmo.Program, len(threads))
	val := uint64(1)
	for t, ops := range threads {
		lifted := make([]pmo.Op, len(ops))
		for i, op := range ops {
			lifted[i] = pmo.Op{Kind: op.kind, Loc: op.loc, Label: op.label}
			if op.kind == pmo.KStore {
				lifted[i].Val = val
				val++
			}
		}
		prog[t] = lifted //strandvet:ok construction of the freshly allocated program, never rewritten
	}
	return prog
}

// graph is the static must-persist-before relation over the stores.
type graph struct {
	build      *pmo.Builder
	visOrdered bool
	// stores lists the store ops in (thread, program) order: the store
	// numbering of order's rows.
	stores []irOp
	order  *pmo.Relation
}

// buildGraph builds the static projection of Equations 1-4 (only the
// edges that hold in every interleaving) with the formal model's PMO
// builder: same-thread barrier and same-location edges, closed
// transitively with loads relaying order. Cross-thread Equation 3
// edges depend on the interleaving and are never "must". With
// visOrdered, every same-thread store pair is ordered.
func buildGraph(threads [][]irOp, visOrdered bool) *graph {
	g := &graph{build: pmo.NewBuilder(toProgram(threads)), visOrdered: visOrdered}
	for _, ops := range threads {
		for _, op := range ops {
			if op.kind == pmo.KStore {
				g.stores = append(g.stores, op)
			}
		}
	}
	g.order = g.build.MustOrder(visOrdered, nil)
	return g
}

// count is the one census rule behind a Report's counters: an op
// counts by its ordering role, and a barrier also by whether its
// mnemonic stalls the core.
func (fp *Footprint) count(kind pmo.Kind, src isa.OpKind) {
	switch kind {
	case pmo.KStore:
		fp.Stores++
	case pmo.KLoad:
		fp.Loads++
	default:
		fp.Barriers++
		if stalling(src) {
			fp.StallBarriers++
		}
	}
}

// analyze runs the four finding passes over the IR.
func analyze(name string, threads [][]irOp, requires []Requirement, visOrdered bool) (*Report, error) {
	g := buildGraph(threads, visOrdered)
	fp := Footprint{MustEdges: g.order.Pairs()}
	for _, ops := range threads {
		for _, op := range ops {
			fp.count(op.kind, op.src)
		}
	}
	rep := &Report{
		Name: name, Threads: len(threads),
		Stores: fp.Stores, Loads: fp.Loads,
		Barriers: fp.Barriers, StallBarriers: fp.StallBarriers, MustEdges: fp.MustEdges,
	}

	// Resolve requirement labels to store numbers up front.
	labelStore := make(map[string]int)
	dupLabel := make(map[string]bool)
	for idx, nd := range g.stores {
		if nd.label == "" {
			continue
		}
		if _, seen := labelStore[nd.label]; seen {
			dupLabel[nd.label] = true
			continue
		}
		labelStore[nd.label] = idx
	}
	required := pmo.NewRelation(len(g.stores))
	type reqEdge struct {
		before, after int
		req           Requirement
	}
	var reqEdges []reqEdge
	for _, r := range requires {
		bi, bok := labelStore[r.Before]
		ai, aok := labelStore[r.After]
		if !bok || !aok {
			return nil, fmt.Errorf("requirement %q -> %q references an unknown store label", r.Before, r.After)
		}
		if dupLabel[r.Before] || dupLabel[r.After] {
			return nil, fmt.Errorf("requirement %q -> %q references an ambiguous (duplicated) store label", r.Before, r.After)
		}
		reqEdges = append(reqEdges, reqEdge{before: bi, after: ai, req: r})
		required.Add(bi, ai)
	}
	// The requirements compose transitively: log -> update and
	// update -> marker imply log -> marker is also load-bearing.
	required.Close()
	rep.RequiredEdges = required.Pairs()

	var findings []Finding

	// Class 1: unpersisted stores.
	for _, nd := range g.stores {
		if !nd.flushed {
			findings = append(findings, Finding{
				Class:    ClassUnpersistedStore,
				Severity: SevError,
				Thread:   nd.thread,
				Index:    nd.pos,
				Op:       nd.render(),
				Message:  "store is never flushed: no CLWB covers its cache line before the end of the thread, so a crash at any point may lose it",
			})
		}
	}

	// Class 2: missing ordering.
	for _, e := range reqEdges {
		before, after := g.stores[e.before], g.stores[e.after]
		reason := ""
		if e.req.Reason != "" {
			reason = " (" + e.req.Reason + ")"
		}
		switch {
		case !before.flushed:
			findings = append(findings, Finding{
				Class:    ClassMissingOrdering,
				Severity: SevError,
				Thread:   after.thread,
				Index:    after.pos,
				Op:       after.render(),
				Message: fmt.Sprintf("required predecessor %q is never flushed: a crash can persist %q without it%s",
					e.req.Before, e.req.After, reason),
			})
		case !g.order.Has(e.before, e.after):
			findings = append(findings, Finding{
				Class:    ClassMissingOrdering,
				Severity: SevError,
				Thread:   after.thread,
				Index:    after.pos,
				Op:       after.render(),
				Message: fmt.Sprintf("no persist-order path from %q: a crash can persist %q without %q%s",
					e.req.Before, e.req.After, e.req.Before, reason),
			})
		}
	}

	// Classes 3 and 4: walk the barriers.
	findings = append(findings, barrierFindings(g, threads, required, len(requires) > 0)...)

	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Class < b.Class
	})
	rep.Findings = findings
	return rep, nil
}

// barrierFindings produces the redundant-barrier and strand-misuse
// findings.
func barrierFindings(g *graph, threads [][]irOp, required *pmo.Relation, haveReqs bool) []Finding {
	var findings []Finding
	for t, ops := range threads {
		seenNS := false
		// strandStart is the IR index right after the latest strand
		// boundary (NewStrand or JoinStrand; a join resets strand
		// state).
		strandStart := 0
		for i, op := range ops {
			switch op.kind {
			case pmo.KStore, pmo.KLoad:
				continue
			case pmo.KNS:
				seenNS = true
				// Degenerate NS;JS pair: a strand opened and joined
				// with nothing on it.
				if j, next := nextMeaningful(ops, i); next != nil && next.kind == pmo.KJS {
					findings = append(findings, Finding{
						Class:    ClassStrandMisuse,
						Severity: SevWarn,
						Thread:   t,
						Index:    ops[j].pos,
						Op:       ops[j].render(),
						Message:  "degenerate NewStrand;JoinStrand pair: the strand carries no persists",
					})
				}
				strandStart = i + 1
				continue
			case pmo.KJS:
				strandStart = i + 1
				if op.src == isa.OpJoinStrand {
					// JoinStrand is the strand model's durability point;
					// its redundancy story is the strand-misuse class,
					// not edge counting.
					if !seenNS {
						findings = append(findings, Finding{
							Class:    ClassStrandMisuse,
							Severity: SevWarn,
							Thread:   t,
							Index:    op.pos,
							Op:       op.render(),
							Message:  "JoinStrand with no preceding NewStrand: there are no prior strands to merge",
						})
					}
					continue
				}
				// SFENCE/DFENCE fall through to edge measurement.
			case pmo.KPB:
				// Barrier on an empty strand: nothing before it since
				// the strand opened, so it orders nothing on this
				// strand.
				empty := true
				for k := strandStart; k < i; k++ {
					if ops[k].kind == pmo.KStore || ops[k].kind == pmo.KLoad {
						empty = false
						break
					}
				}
				if empty {
					findings = append(findings, Finding{
						Class:    ClassStrandMisuse,
						Severity: SevWarn,
						Thread:   t,
						Index:    op.pos,
						Op:       op.render(),
						Message:  "barrier at the start of an empty strand orders nothing",
					})
					continue
				}
			}
			// Remaining cases: a strand-scoped barrier mid-strand, or a
			// strand-insensitive fence (SFENCE/DFENCE; JoinStrand was
			// handled above). Measure its edge contribution.
			if stalling(op.src) && !storesAfter(ops, i) {
				// A draining fence with no later persists is a pure
				// durability point (make everything durable before
				// proceeding/returning), not a redundant barrier.
				continue
			}
			contributed, excess := g.contribution(pmo.OpPos{Thread: t, Index: i}, required)
			if contributed == 0 {
				findings = append(findings, Finding{
					Class:    ClassRedundantBarrier,
					Severity: SevWarn,
					Thread:   t,
					Index:    op.pos,
					Op:       op.render(),
					Message:  "redundant barrier: contributes no must-persist-before edges; removing it leaves the persist order unchanged",
					Suggestion: "delete the barrier, or restructure the surrounding strand " +
						"(a barrier cleared by NewStrand or shadowed by a later join orders nothing)",
				})
				continue
			}
			if haveReqs && excess > 0 && (op.src == isa.OpSFence || op.src == isa.OpOFence) {
				findings = append(findings, Finding{
					Class:       ClassRedundantBarrier,
					Severity:    SevInfo,
					Thread:      t,
					Index:       op.pos,
					Op:          op.render(),
					Contributed: contributed,
					Required:    contributed - excess,
					Excess:      excess,
					Message: fmt.Sprintf("over-ordering barrier: enforces %d must-persist-before pairs but the recipe requires only %d",
						contributed, contributed-excess),
					Suggestion: "a NewStrand per independent log/update pair plus JoinStrand at the commit point " +
						fmt.Sprintf("would relax %d of these pairs (strand persistency, paper Figure 5)", excess),
				})
			}
		}
	}
	return findings
}

// storesAfter reports whether any store follows IR index i in the
// thread.
func storesAfter(ops []irOp, i int) bool {
	for j := i + 1; j < len(ops); j++ {
		if ops[j].kind == pmo.KStore {
			return true
		}
	}
	return false
}

// nextMeaningful returns the next non-load op after index i (loads on
// an otherwise empty strand do not make it meaningful for persists).
func nextMeaningful(ops []irOp, i int) (int, *irOp) {
	for j := i + 1; j < len(ops); j++ {
		if ops[j].kind == pmo.KLoad {
			continue
		}
		return j, &ops[j]
	}
	return -1, nil
}

// contribution measures a barrier's edge contribution: the store pairs
// present in the full order but absent when the barrier is skipped,
// and how many of those no declared requirement needs.
func (g *graph) contribution(at pmo.OpPos, required *pmo.Relation) (contributed, excess int) {
	without := g.build.MustOrder(g.visOrdered, &at)
	for s := range g.stores {
		full, wo, req := g.order.Row(s), without.Row(s), required.Row(s)
		for w := range full {
			diff := full[w] &^ wo[w]
			contributed += bits.OnesCount64(diff)
			excess += bits.OnesCount64(diff &^ req[w])
		}
	}
	return contributed, excess
}
