package pmo

import (
	"fmt"
	"sort"
)

// This file keeps the original crash-cut enumerator as the test-side
// reference for the Builder: per interleaving of all ops, the Eq. 1-4
// order as a [][]bool matrix over the memory events, and every one of
// the 2^stores subsets filtered for downward closure. It is
// exponential in the store count and exists only to check the builder.

// event is a dynamic op instance within one interleaving.
type event struct {
	op     Op
	thread int
	// progIdx is the index in the thread's program.
	progIdx int
	// vmoIdx is the position in the chosen total visibility order.
	vmoIdx int
}

// Reference enumeration budget: interleavings x 2^stores.
const (
	refMaxInterleavings = 1 << 17
	refMaxEnumWork      = 1 << 25
)

// refInterleavingCount returns the number of total orders preserving
// each thread's program order, saturating at refMaxInterleavings+1.
func refInterleavingCount(p Program) uint64 {
	count := uint64(1)
	placed := uint64(0)
	for _, t := range p {
		for i := uint64(1); i <= uint64(len(t)); i++ {
			placed++
			count = count * placed / i
			if count > refMaxInterleavings {
				return refMaxInterleavings + 1
			}
		}
	}
	return count
}

// forEachInterleaving visits every total visibility order (interleaving
// preserving each thread's program order) of the program.
func forEachInterleaving(p Program, visit func(inter []event)) {
	stores := 0
	for _, t := range p {
		for _, op := range t {
			if op.Kind == KStore {
				stores++
			}
		}
	}
	inters := refInterleavingCount(p)
	work := uint64(refMaxEnumWork) + 1
	if inters <= refMaxInterleavings && stores < 30 {
		work = inters << uint(stores)
	}
	if inters > refMaxInterleavings || work > refMaxEnumWork {
		panic(fmt.Sprintf("pmo reference: program too large for exhaustive checking (%d interleavings, %d stores)", inters, stores))
	}
	idx := make([]int, len(p))
	var inter []event
	var rec func()
	rec = func() {
		done := true
		for t := range p {
			if idx[t] < len(p[t]) {
				done = false
				ev := event{op: p[t][idx[t]], thread: t, progIdx: idx[t], vmoIdx: len(inter)}
				idx[t]++
				inter = append(inter, ev)
				rec()
				inter = inter[:len(inter)-1]
				idx[t]--
			}
		}
		if done {
			visit(inter)
		}
	}
	rec()
}

// orderOfInterleaving builds the PMO nodes (memory events) and the
// prescribed persist-order matrix of Equations 1-4 for one total
// visibility order.
func orderOfInterleaving(p Program, inter []event) ([]event, [][]bool) {
	var nodes []event
	for _, e := range inter {
		if e.op.Kind == KStore || e.op.Kind == KLoad {
			nodes = append(nodes, e)
		}
	}
	n := len(nodes)
	ord := make([][]bool, n)
	for i := range ord {
		ord[i] = make([]bool, n)
	}
	// Equations 1 and 2: same-thread ordering via PB (without intervening
	// NS) or via JS.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := nodes[i], nodes[j]
			if a.thread != b.thread || a.progIdx >= b.progIdx {
				continue
			}
			prog := p[a.thread]
			hasPB, hasNS, hasJS := false, false, false
			for k := a.progIdx + 1; k < b.progIdx; k++ {
				switch prog[k].Kind {
				case KPB:
					hasPB = true
				case KNS:
					hasNS = true
				case KJS:
					hasJS = true
				}
			}
			if hasJS || (hasPB && !hasNS) {
				ord[i][j] = true
			}
		}
	}
	// Equation 3: strong persist atomicity — conflicting stores ordered
	// by visibility.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := nodes[i], nodes[j]
			if a.op.Kind == KStore && b.op.Kind == KStore &&
				a.op.Loc == b.op.Loc && a.vmoIdx < b.vmoIdx {
				ord[i][j] = true
			}
		}
	}
	// Equation 4: transitivity.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !ord[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if ord[k][j] {
					ord[i][j] = true
				}
			}
		}
	}
	return nodes, ord
}

// forEachDownwardClosedCut enumerates the valid crash cuts of one
// interleaving: subset S (a bitmask over the persist indices) is valid
// iff for every included persist, every PMO-smaller persist is
// included.
func forEachDownwardClosedCut(nodes []event, ord [][]bool, visit func(nodes []event, persists []int, mask int)) {
	var persists []int
	for i, e := range nodes {
		if e.op.Kind == KStore {
			persists = append(persists, i)
		}
	}
	for mask := 0; mask < 1<<len(persists); mask++ {
		ok := true
		for bi, i := range persists {
			if mask&(1<<bi) == 0 {
				continue
			}
			for bj, j := range persists {
				if mask&(1<<bj) == 0 && ord[j][i] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			visit(nodes, persists, mask)
		}
	}
}

// refAllowedStates is the reference AllowedStates.
func refAllowedStates(p Program) map[string]State {
	out := make(map[string]State)
	forEachInterleaving(p, func(inter []event) {
		for key, st := range statesOfInterleaving(p, inter) {
			out[key] = st
		}
	})
	return out
}

// statesOfInterleaving computes the allowed crash states for one total
// visibility order.
func statesOfInterleaving(p Program, inter []event) map[string]State {
	nodes, ord := orderOfInterleaving(p, inter)
	out := make(map[string]State)
	forEachDownwardClosedCut(nodes, ord, func(nodes []event, persists []int, mask int) {
		st := make(State)
		for bi, i := range persists {
			if mask&(1<<bi) == 0 {
				continue
			}
			e := nodes[i]
			// Strong persist atomicity makes same-location persists
			// visibility-ordered; the state holds the latest included one.
			if _, seen := st[e.op.Loc]; !seen || laterSameLoc(nodes, persists, mask, e) {
				st[e.op.Loc] = e.op.Val
			}
		}
		out[st.Key()] = st
	})
	return out
}

// laterSameLoc reports whether e is the visibility-latest included store
// to its location.
func laterSameLoc(nodes []event, persists []int, mask int, e event) bool {
	for bi, i := range persists {
		if mask&(1<<bi) == 0 {
			continue
		}
		o := nodes[i]
		if o.op.Loc == e.op.Loc && o.vmoIdx > e.vmoIdx {
			return false
		}
	}
	return true
}

// refPersistSetKeys returns the canonical keys of every allowed persist
// set, deduplicated and sorted.
func refPersistSetKeys(p Program) []string {
	seen := make(map[string]bool)
	forEachInterleaving(p, func(inter []event) {
		nodes, ord := orderOfInterleaving(p, inter)
		forEachDownwardClosedCut(nodes, ord, func(nodes []event, persists []int, mask int) {
			set := make(PersistSet)
			for bi, i := range persists {
				if mask&(1<<bi) != 0 {
					set[StoreID{Thread: nodes[i].thread, Index: nodes[i].progIdx}] = true
				}
			}
			seen[set.Key()] = true
		})
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refCutMasks returns the reference's allowed cuts as sorted store
// masks in (thread, ordinal) numbering.
func refCutMasks(p Program) []uint64 {
	bit := make(map[StoreID]int)
	for t, ops := range p {
		for i, op := range ops {
			if op.Kind == KStore {
				bit[StoreID{Thread: t, Index: i}] = len(bit)
			}
		}
	}
	seen := make(map[uint64]bool)
	forEachInterleaving(p, func(inter []event) {
		nodes, ord := orderOfInterleaving(p, inter)
		forEachDownwardClosedCut(nodes, ord, func(nodes []event, persists []int, mask int) {
			var m uint64
			for bi, i := range persists {
				if mask&(1<<bi) != 0 {
					m |= 1 << bit[StoreID{Thread: nodes[i].thread, Index: nodes[i].progIdx}]
				}
			}
			seen[m] = true
		})
	})
	out := make([]uint64, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
