package pmo

// This file is the model's program-rewriting surface: the only
// sanctioned way to derive one abstract program from another. Every
// transform returns a fresh Program (no op-slice aliasing with the
// input), so a caller holding the original can compare the two against
// the model — the auto-relaxation optimizer (internal/relax) leans on
// this to prove each rewrite step against the exact crash-cut oracle.
// Direct slice mutation of a Program outside internal/{pmo,relax} is
// forbidden by a strandvet rule: a mutated program has no
// before/after pair to validate, so its relaxation log cannot be
// replayed.
//
// Stores are identified across rewrites by StoreRef — the k-th store
// of a thread — which is stable under every transform here (none adds,
// removes or reorders stores). StoreID (a program index) is not stable:
// inserting or deleting a barrier shifts every later index.

import (
	"fmt"
	"strings"
)

// StoreRef names a store by thread and store ordinal: Ord is the
// store's rank among its thread's stores (0-based, program order).
// Unlike StoreID.Index it survives barrier insertion and deletion, so
// it is the currency of cross-rewrite comparisons and of relaxation
// requirements.
type StoreRef struct {
	Thread int `json:"thread"`
	Ord    int `json:"ord"`
}

func (r StoreRef) String() string { return fmt.Sprintf("t%d.s%d", r.Thread, r.Ord) }

// String renders the op in litmus notation.
func (o Op) String() string {
	name := func(def string) string {
		if o.Label != "" {
			return fmt.Sprintf("%s %q", def, o.Label)
		}
		return fmt.Sprintf("%s loc%d", def, o.Loc)
	}
	switch o.Kind {
	case KStore:
		if o.Label != "" {
			return fmt.Sprintf("ST %q=%d", o.Label, o.Val)
		}
		return fmt.Sprintf("ST loc%d=%d", o.Loc, o.Val)
	case KLoad:
		return name("LD")
	case KPB:
		return "PB"
	case KNS:
		return "NS"
	case KJS:
		if o.Label != "" {
			return fmt.Sprintf("JS %q", o.Label)
		}
		return "JS"
	default:
		return fmt.Sprintf("Op(%d)", o.Kind)
	}
}

// String renders the program one thread per line, ops separated by
// "; " — the relaxation log's program notation.
func (p Program) String() string {
	var b strings.Builder
	for t, ops := range p {
		if t > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "t%d:", t)
		for _, op := range ops {
			b.WriteByte(' ')
			b.WriteString(op.String())
			b.WriteByte(';')
		}
	}
	return b.String()
}

// Clone returns a deep copy: mutating the copy's op slices never
// touches the original.
func (p Program) Clone() Program {
	q := make(Program, len(p))
	for t, ops := range p {
		q[t] = append([]Op(nil), ops...)
	}
	return q
}

// WithoutOp returns a copy of the program with the op at (thread t,
// index i) removed. It panics on an out-of-range position.
func (p Program) WithoutOp(t, i int) Program {
	q := p.Clone()
	if t < 0 || t >= len(q) || i < 0 || i >= len(q[t]) {
		panic(fmt.Sprintf("pmo: WithoutOp(%d, %d) out of range", t, i))
	}
	q[t] = append(q[t][:i], q[t][i+1:]...)
	return q
}

// WithOp returns a copy of the program with the op at (t, i) replaced.
func (p Program) WithOp(t, i int, op Op) Program {
	q := p.Clone()
	if t < 0 || t >= len(q) || i < 0 || i >= len(q[t]) {
		panic(fmt.Sprintf("pmo: WithOp(%d, %d) out of range", t, i))
	}
	q[t][i] = op
	return q
}

// WithInsert returns a copy of the program with op inserted at (t, i);
// i may equal the thread length (append).
func (p Program) WithInsert(t, i int, op Op) Program {
	if t < 0 || t >= len(p) || i < 0 || i > len(p[t]) {
		panic(fmt.Sprintf("pmo: WithInsert(%d, %d) out of range", t, i))
	}
	q := make(Program, len(p))
	for u, ops := range p {
		if u != t {
			q[u] = append([]Op(nil), ops...)
		}
	}
	ops := make([]Op, 0, len(p[t])+1)
	q[t] = append(append(append(ops, p[t][:i]...), op), p[t][i:]...)
	return q
}

// StoreIDOf resolves a StoreRef to the program's StoreID (the store's
// program index), or false when the thread has no such store.
func StoreIDOf(p Program, r StoreRef) (StoreID, bool) {
	if r.Thread < 0 || r.Thread >= len(p) {
		return StoreID{}, false
	}
	ord := 0
	for i, op := range p[r.Thread] {
		if op.Kind != KStore {
			continue
		}
		if ord == r.Ord {
			return StoreID{Thread: r.Thread, Index: i}, true
		}
		ord++
	}
	return StoreID{}, false
}

// RefOf maps a StoreID back to its stable StoreRef, or false when the
// position does not hold a store.
func RefOf(p Program, id StoreID) (StoreRef, bool) {
	if id.Thread < 0 || id.Thread >= len(p) || id.Index < 0 || id.Index >= len(p[id.Thread]) {
		return StoreRef{}, false
	}
	if p[id.Thread][id.Index].Kind != KStore {
		return StoreRef{}, false
	}
	ord := 0
	for i := 0; i < id.Index; i++ {
		if p[id.Thread][i].Kind == KStore {
			ord++
		}
	}
	return StoreRef{Thread: id.Thread, Ord: ord}, true
}

// SameStores reports whether two programs carry the same stores (kind,
// location, value, label) per thread in the same program order — the
// precondition for comparing their allowed persist sets by ordinal.
// Barrier structure is free to differ.
func SameStores(a, b Program) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		sa, sb := threadStores(a[t]), threadStores(b[t])
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			x, y := sa[i], sb[i]
			if x.Loc != y.Loc || x.Val != y.Val || x.Label != y.Label {
				return false
			}
		}
	}
	return true
}

func threadStores(ops []Op) []Op {
	var out []Op
	for _, op := range ops {
		if op.Kind == KStore {
			out = append(out, op)
		}
	}
	return out
}
