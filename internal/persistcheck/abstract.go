package persistcheck

import (
	"fmt"

	"strandweaver/internal/pmo"
)

// This file is the analyzer's hand-off to the auto-relaxation
// optimizer (internal/relax): it lowers a recorded ISA stream all the
// way to the formal model's abstract program, with the stream's
// declared persist-order requirements resolved onto stable store
// ordinals. The optimizer searches rewrites of the abstract program
// and proves each step against the model's crash cuts — the same
// lowering the static analyzer uses, so the two tools agree on what
// the stream means.

// AbstractRequirement is a Requirement resolved onto the abstract
// program: the stores are named by stable StoreRef ordinals, which
// survive the optimizer's barrier rewrites.
type AbstractRequirement struct {
	Before pmo.StoreRef `json:"before"`
	After  pmo.StoreRef `json:"after"`
	// BeforeLabel and AfterLabel keep the source labels for
	// diagnostics.
	BeforeLabel string `json:"before_label"`
	AfterLabel  string `json:"after_label"`
	// Reason names the invariant the requirement protects.
	Reason string `json:"reason,omitempty"`
}

// AbstractStream lowers an ISA stream to the formal model's abstract
// program plus its requirements resolved to store ordinals. Abstract
// stores are persists, so the lowering refuses streams with unflushed
// PM stores — the formal model cannot represent a store that may
// never persist; run the analyzer (AnalyzeStream) first and fix the
// missing flushes. Barrier labels (notably the logging runtimes'
// "durable" marks) are carried through so the optimizer can pin
// durability points.
//
// Streams with PersistAtVisibility are not lowerable: their persist
// order is the visibility order, which the abstract model's equations
// do not prescribe (they have no barriers to relax anyway); callers
// should treat them as already minimal.
func AbstractStream(s Stream) (pmo.Program, []AbstractRequirement, error) {
	if s.PersistAtVisibility {
		return nil, nil, fmt.Errorf("persistcheck: %s: persist-at-visibility streams have no ordering to relax", s.Name)
	}
	threads, err := lowerISA(s.Ops)
	if err != nil {
		return nil, nil, fmt.Errorf("persistcheck: %s: %w", s.Name, err)
	}
	refOf := make(map[string]pmo.StoreRef)
	dup := make(map[string]bool)
	for t, ops := range threads {
		ord := 0
		for _, op := range ops {
			if op.kind != pmo.KStore {
				continue
			}
			if !op.flushed {
				return nil, nil, fmt.Errorf("persistcheck: %s: store %s is never flushed; the abstract model has no unpersisted stores (fix the stream or run AnalyzeStream)", s.Name, op.render())
			}
			if op.label != "" {
				if _, seen := refOf[op.label]; seen {
					dup[op.label] = true
				} else {
					refOf[op.label] = pmo.StoreRef{Thread: t, Ord: ord}
				}
			}
			ord++
		}
	}
	var reqs []AbstractRequirement
	for _, r := range s.Requires {
		before, bok := refOf[r.Before]
		after, aok := refOf[r.After]
		if !bok || !aok {
			return nil, nil, fmt.Errorf("persistcheck: %s: requirement %q -> %q references an unknown store label", s.Name, r.Before, r.After)
		}
		if dup[r.Before] || dup[r.After] {
			return nil, nil, fmt.Errorf("persistcheck: %s: requirement %q -> %q references an ambiguous (duplicated) store label", s.Name, r.Before, r.After)
		}
		reqs = append(reqs, AbstractRequirement{
			Before: before, After: after,
			BeforeLabel: r.Before, AfterLabel: r.After,
			Reason: r.Reason,
		})
	}
	return toProgram(threads), reqs, nil
}
