package persistcheck

import (
	"fmt"

	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmo"
)

// lowerISA lowers a recorded ISA instruction stream to the analyzer's
// per-thread IR — the isa -> pmo abstraction step:
//
//   - a PM store becomes a persist candidate; it is "flushed" iff a
//     later CLWB of the same thread covers its cache line (non-PM
//     stores, e.g. the undo log's volatile DRAM tail, are dropped —
//     they never participate in persist order);
//   - PM loads become relay nodes (they order only through barriers
//     and transitivity, exactly as in the formal model);
//   - RMWs are stores for ordering purposes (they have write
//     semantics, so strong persist atomicity applies);
//   - SFENCE lowers to the strand-insensitive barrier class: it orders
//     every prior persist of the thread before every later one, which
//     on a design without strands is JoinStrand's edge rule;
//   - OFENCE lowers to the strand-scoped class (an epoch boundary, the
//     same edge rule as PersistBarrier); DFENCE to the strand-
//     insensitive class (a full drain);
//   - CLWB and compute lower to nothing (the flush is folded into the
//     store's flushed bit; compute has no ordering semantics).
//
// Abstract locations are cache lines, numbered in first-touch order
// per stream.
func lowerISA(ops []isa.Op) ([][]irOp, error) {
	maxThread := -1
	for _, op := range ops {
		if op.Thread < 0 {
			return nil, fmt.Errorf("op %v has a negative thread", op)
		}
		if op.Thread > maxThread {
			maxThread = op.Thread
		}
	}
	threads := make([][]irOp, maxThread+1)
	pos := make([]int, maxThread+1)
	locOf := make(map[mem.Addr]int)
	loc := func(a mem.Addr) int {
		line := mem.LineAddr(a)
		if l, ok := locOf[line]; ok {
			return l
		}
		l := len(locOf)
		locOf[line] = l
		return l
	}
	// lastStores tracks, per (thread, line), the unflushed store IR
	// indexes a CLWB would cover.
	type tline struct {
		t    int
		line mem.Addr
	}
	unflushed := make(map[tline][]int)

	for _, op := range ops {
		t := op.Thread
		p := pos[t]
		pos[t]++
		switch op.Kind {
		case isa.OpStore, isa.OpRMW:
			if !mem.IsPM(mem.Addr(op.Addr)) {
				continue
			}
			line := mem.LineAddr(mem.Addr(op.Addr))
			threads[t] = append(threads[t], irOp{
				kind: pmo.KStore, src: op.Kind, loc: loc(mem.Addr(op.Addr)),
				label: op.Label, thread: t, pos: p,
			})
			key := tline{t, line}
			unflushed[key] = append(unflushed[key], len(threads[t])-1)
		case isa.OpLoad:
			if !mem.IsPM(mem.Addr(op.Addr)) {
				continue
			}
			threads[t] = append(threads[t], irOp{
				kind: pmo.KLoad, src: op.Kind, loc: loc(mem.Addr(op.Addr)),
				label: op.Label, thread: t, pos: p,
			})
		case isa.OpCLWB:
			line := mem.LineAddr(mem.Addr(op.Addr))
			key := tline{t, line}
			for _, i := range unflushed[key] {
				threads[t][i].flushed = true
			}
			delete(unflushed, key)
		case isa.OpPersistBarrier, isa.OpOFence:
			threads[t] = append(threads[t], irOp{kind: pmo.KPB, src: op.Kind, label: op.Label, thread: t, pos: p})
		case isa.OpNewStrand:
			threads[t] = append(threads[t], irOp{kind: pmo.KNS, src: op.Kind, label: op.Label, thread: t, pos: p})
		case isa.OpJoinStrand, isa.OpSFence, isa.OpDFence:
			threads[t] = append(threads[t], irOp{kind: pmo.KJS, src: op.Kind, label: op.Label, thread: t, pos: p})
		case isa.OpCompute, isa.OpNone:
			// No ordering semantics.
		default:
			return nil, fmt.Errorf("op %v: kind %s is not lowerable", op, op.Kind)
		}
	}
	return threads, nil
}
