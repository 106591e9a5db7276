package pmo

// This file is the one builder of the persist memory order (PMO) of
// Equations 1-4. Both consumers run on it: the crash-cut model below
// (the allowed cuts of one interleaving are exactly the downsets of its
// store-projected PMO) and the static analyzer (internal/persistcheck),
// whose must-persist-before relation is the interleaving-independent
// projection of the same order.
//
// Nodes are a program's memory events (stores and loads) numbered in
// (thread, program order). Every relation is a Relation of bitset rows.
// Eq. 1-2 come from one barrier-interval scan per thread, Eq. 3 adds
// the same-location store edges, and Eq. 4 is a bitset closure, through
// which loads relay order: one forward pass for the must order, whose
// edges all run forward in program order, and Warshall once an
// interleaving adds cross-thread edges. Results are projected onto
// the stores, numbered in (thread, ordinal) order: the StoreRef
// numbering, so bit i of a cut mask is the same store in every rewrite
// of a program.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Limits of the crash-cut enumeration. A cut is a uint64 mask over the
// stores, so a program may have at most MaxMaskStores stores. Loads and
// barriers add no visibility choices, so the interleavings walked are
// those of the stores. The work grows with the number of allowed cuts,
// which MaxCuts bounds: 2^22 masks are 32 MiB, and every cut of a
// family is held at once to sort and deduplicate it. A program with 23
// or more mutually unordered stores is past that cap. Relation.Downsets
// counts cuts exactly up to the same cap.
const (
	MaxMaskStores    = 64
	maxInterleavings = 1 << 17
	MaxCuts          = 1 << 22
)

// Relation is a binary relation over n elements stored as bitset rows:
// row b holds every a with a -> b, that is, b's predecessors.
type Relation struct {
	n, words int
	bits     []uint64
}

// NewRelation returns the empty relation over n elements.
func NewRelation(n int) *Relation {
	w := (n + 63) / 64
	return &Relation{n: n, words: w, bits: make([]uint64, n*w)}
}

// Row returns b's predecessor bitset. The caller must not modify it.
func (r *Relation) Row(b int) []uint64 { return r.bits[b*r.words : (b+1)*r.words] }

// Add records a -> b.
func (r *Relation) Add(a, b int) { r.bits[b*r.words+a>>6] |= 1 << (a & 63) }

// Has reports a -> b.
func (r *Relation) Has(a, b int) bool { return r.bits[b*r.words+a>>6]&(1<<(a&63)) != 0 }

// Pairs counts the related pairs.
func (r *Relation) Pairs() int {
	n := 0
	for _, w := range r.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports whether every pair of r is a pair of s. Both must
// be over the same elements.
func (r *Relation) SubsetOf(s *Relation) bool {
	if r.n != s.n {
		panic(fmt.Sprintf("pmo: SubsetOf over %d and %d elements", r.n, s.n))
	}
	for i, w := range r.bits {
		if w&^s.bits[i] != 0 {
			return false
		}
	}
	return true
}

// Close makes the relation transitive (Warshall over bitset rows): for
// each k, every b after k inherits k's predecessors.
func (r *Relation) Close() {
	for k := 0; k < r.n; k++ {
		rk := r.Row(k)
		for b := 0; b < r.n; b++ {
			if !r.Has(k, b) {
				continue
			}
			rb := r.Row(b)
			for w := range rb {
				rb[w] |= rk[w]
			}
		}
	}
}

// closeForward is Close for a relation whose every pair a -> b has
// a < b, as the events of one thread in program order do: one pass in
// element order, where each row inherits the already closed rows of
// its direct predecessors. The predecessors are walked from the
// highest down, and one whose row an inherited row already holds is
// skipped, since its own row is inside that one; on a barrier-ordered
// thread only the few maximal predecessors are walked.
func (r *Relation) closeForward() {
	direct := make([]uint64, r.words)
	for b := 0; b < r.n; b++ {
		rb := r.Row(b)
		copy(direct, rb)
		for w := len(direct) - 1; w >= 0; w-- {
			for direct[w] != 0 {
				hi := 63 - bits.LeadingZeros64(direct[w])
				ra := r.Row(w<<6 + hi)
				direct[w] &^= 1 << hi
				for v := range ra {
					rb[v] |= ra[v]
					direct[v] &^= ra[v]
				}
			}
		}
	}
}

// addRange records a -> b for every a in [lo, hi).
func (r *Relation) addRange(lo, hi, b int) {
	if lo >= hi {
		return
	}
	row := r.Row(b)
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		mask := ^uint64(0)
		if w == lo>>6 {
			mask &= ^uint64(0) << (lo & 63)
		}
		if w == (hi-1)>>6 {
			mask &= ^uint64(0) >> (63 - (hi-1)&63)
		}
		row[w] |= mask
	}
}

// OpPos locates one op of a Program.
type OpPos struct{ Thread, Index int }

// Builder builds the persist memory orders of one program.
type Builder struct {
	p Program
	// base[t] is the node of thread t's first memory event.
	base []int
	// nodes counts the memory events.
	nodes int
	// storeOf maps a node to its store number, or -1 for a load; locOf
	// maps it to its location.
	storeOf, locOf []int
	// stores lists the stores by store number: (thread, ordinal) order;
	// storeNode maps a store number to its node.
	stores    []StoreID
	storeNode []int
}

// NewBuilder numbers the program's memory events and stores.
func NewBuilder(p Program) *Builder {
	events, stores := 0, 0
	for _, ops := range p {
		for _, op := range ops {
			switch op.Kind {
			case KStore:
				stores++
				fallthrough
			case KLoad:
				events++
			}
		}
	}
	b := &Builder{
		p: p, base: make([]int, len(p)),
		storeOf: make([]int, 0, events), locOf: make([]int, 0, events),
		stores: make([]StoreID, 0, stores), storeNode: make([]int, 0, stores),
	}
	for t, ops := range p {
		b.base[t] = b.nodes
		for i, op := range ops {
			switch op.Kind {
			case KStore:
				b.storeOf = append(b.storeOf, len(b.stores))
				b.stores = append(b.stores, StoreID{Thread: t, Index: i})
				b.storeNode = append(b.storeNode, b.nodes)
			case KLoad:
				b.storeOf = append(b.storeOf, -1)
			default:
				continue
			}
			b.locOf = append(b.locOf, op.Loc)
			b.nodes++
		}
	}
	return b
}

// threadEdges adds thread t's interleaving-independent edges to r.
//
// Eq. 1-2: a memory event is ordered after every earlier one of its
// thread with a JoinStrand between them, or with a PersistBarrier and
// no NewStrand between them. With mJS, mNS and mPB the number of the
// thread's memory events before its latest JoinStrand, NewStrand and
// PersistBarrier, these are the events [0, mJS) and [mNS, mPB).
//
// Eq. 3 within a thread: a store is ordered after the thread's previous
// store to its location (visibility follows program order), or after
// the thread's previous store at all when visOrdered. The closure
// completes both chains.
//
// The op at index skip (-1: none) is ignored.
func (b *Builder) threadEdges(r *Relation, t, skip int, visOrdered bool) {
	base := b.base[t]
	m, mJS, mNS, mPB := 0, 0, 0, 0
	for i, op := range b.p[t] {
		if i == skip {
			continue
		}
		switch op.Kind {
		case KJS:
			mJS = m
		case KNS:
			mNS = m
		case KPB:
			mPB = m
		case KStore, KLoad:
			n := base + m
			r.addRange(base, base+mJS, n)
			if mPB > mNS {
				r.addRange(base+mNS, base+mPB, n)
			}
			if op.Kind == KStore {
				for k := n - 1; k >= base; k-- {
					if b.storeOf[k] >= 0 && (visOrdered || b.locOf[k] == op.Loc) {
						r.Add(k, n)
						break
					}
				}
			}
			m++
		}
	}
}

// project restricts a node relation to the stores.
func (b *Builder) project(r *Relation) *Relation {
	if len(b.stores) == b.nodes {
		return r
	}
	out := NewRelation(len(b.stores))
	for n, s := range b.storeOf {
		if s < 0 {
			continue
		}
		for w, word := range r.Row(n) {
			for ; word != 0; word &= word - 1 {
				if a := b.storeOf[w<<6+bits.TrailingZeros64(word)]; a >= 0 {
					out.Add(a, s)
				}
			}
		}
	}
	return out
}

// MustOrder returns the interleaving-independent projection of the PMO
// onto the stores: Eq. 1-2 and same-thread Eq. 3 edges, closed under
// Eq. 4. Cross-thread Eq. 3 edges depend on the interleaving and are
// never in it. With visOrdered, every same-thread store pair is ordered
// (persist-at-visibility designs). A non-nil skip ignores the barrier
// at that position, so the difference from the full order is that
// barrier's edge contribution.
func (b *Builder) MustOrder(visOrdered bool, skip *OpPos) *Relation {
	r := NewRelation(b.nodes)
	for t := range b.p {
		s := -1
		if skip != nil && skip.Thread == t {
			s = skip.Index
		}
		b.threadEdges(r, t, s, visOrdered)
	}
	r.closeForward()
	return b.project(r)
}

// errTooManyCuts is forEachCut's error for a program past MaxCuts.
var errTooManyCuts = fmt.Errorf("pmo: program has more than %d crash cuts to enumerate", MaxCuts)

// forEachCut emits every crash cut of every distinct store-projected
// PMO over all interleavings of the stores, with vis, the store numbers
// in the interleaving's visibility order. Each PMO's cuts are its
// downsets: walking the stores along vis, a linear extension of the
// PMO, a store may persist only when its predecessors already have.
// Every branch ends in a valid cut, so the work grows with the number
// of cuts, not with 2^stores. A cut emitted under two PMOs is emitted
// twice.
func (b *Builder) forEachCut(emit func(mask uint64, vis []int)) error {
	if len(b.stores) > MaxMaskStores {
		return fmt.Errorf("pmo: program has %d stores; crash cuts are uint64 masks, limited to %d stores", len(b.stores), MaxMaskStores)
	}
	base := NewRelation(b.nodes)
	for t := range b.p {
		b.threadEdges(base, t, -1, false)
	}
	// Per thread, the store numbers in program order.
	threadStores := make([][]int, len(b.p))
	for s, id := range b.stores {
		threadStores[id.Thread] = append(threadStores[id.Thread], s)
	}
	if n := interleavingCount(threadStores); n > maxInterleavings {
		return fmt.Errorf("pmo: program has more than %d interleavings of its stores; the cap is %d", maxInterleavings, maxInterleavings)
	}

	seen := make(map[string]bool)
	pred := make([]uint64, len(b.stores))
	key := make([]byte, 8*len(b.stores))
	r := NewRelation(b.nodes)
	vis := make([]int, 0, len(b.stores)) // stores, visibility order
	idx := make([]int, len(b.p))
	budget := MaxCuts
	var downsets func(k int, mask uint64) bool
	downsets = func(k int, mask uint64) bool {
		if k == len(vis) {
			budget--
			emit(mask, vis)
			return budget >= 0
		}
		s := vis[k]
		if !downsets(k+1, mask) {
			return false
		}
		return pred[s]&^mask != 0 || downsets(k+1, mask|1<<s)
	}
	leaf := func() error {
		copy(r.bits, base.bits)
		last := make(map[int]int)
		for _, s := range vis {
			n := b.storeNode[s]
			if prev, ok := last[b.locOf[n]]; ok {
				r.Add(prev, n)
			}
			last[b.locOf[n]] = n
		}
		r.Close()
		p := b.project(r)
		for s := range pred {
			pred[s] = p.Row(s)[0]
			binary.LittleEndian.PutUint64(key[8*s:], pred[s])
		}
		if seen[string(key)] {
			return nil
		}
		seen[string(key)] = true
		// Charge the PMO's cuts against the budget before walking them,
		// so a program past the cap is refused in a few counting splits
		// instead of after MaxCuts masks. A PMO over s stores has at most
		// 2^s cuts; when that fits the budget the walk's own count
		// suffices.
		if len(pred) >= 63 || 1<<len(pred) > budget {
			if n, ok := p.Downsets(); !ok || n > budget {
				return errTooManyCuts
			}
		}
		if !downsets(0, 0) {
			return errTooManyCuts
		}
		return nil
	}
	var rec func() error
	rec = func() error {
		done := true
		for t := range threadStores {
			if idx[t] == len(threadStores[t]) {
				continue
			}
			done = false
			vis = append(vis, threadStores[t][idx[t]])
			idx[t]++
			err := rec()
			idx[t]--
			vis = vis[:len(vis)-1]
			if err != nil {
				return err
			}
		}
		if done {
			return leaf()
		}
		return nil
	}
	return rec()
}

// interleavingCount returns the number of merges of the sequences that
// keep each one's order (the multinomial coefficient), saturating at
// maxInterleavings+1.
func interleavingCount(seqs [][]int) uint64 {
	count, placed := uint64(1), uint64(0)
	for _, s := range seqs {
		for i := uint64(1); i <= uint64(len(s)); i++ {
			placed++
			count = count * placed / i
			if count > maxInterleavings {
				return maxInterleavings + 1
			}
		}
	}
	return count
}

// Cuts returns every crash cut the model allows, over all
// interleavings, as a sorted, deduplicated slice of store masks: bit s
// is set when store s (in Stores order) persisted.
func (b *Builder) Cuts() ([]uint64, error) {
	var out []uint64
	if err := b.forEachCut(func(m uint64, _ []int) { out = append(out, m) }); err != nil {
		return nil, err
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// States returns every crash state the model allows, keyed by
// State.Key. A location holds the value of its visibility-latest
// persisted store; strong persist atomicity orders same-location
// persists by visibility.
func (b *Builder) States() (map[string]State, error) {
	out := make(map[string]State)
	err := b.forEachCut(func(m uint64, vis []int) {
		st := make(State)
		for _, s := range vis {
			if m&(1<<s) != 0 {
				op := b.p[b.stores[s].Thread][b.stores[s].Index]
				st[op.Loc] = op.Val
			}
		}
		out[st.Key()] = st
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CutMasks returns the program's allowed crash cuts as sorted store
// masks (see Builder.Cuts).
func CutMasks(p Program) ([]uint64, error) { return NewBuilder(p).Cuts() }

// MaskBit returns the mask bit of the store r names: its number in
// (thread, ordinal) order. It is false when the thread has no such
// store.
func MaskBit(p Program, r StoreRef) (int, bool) {
	if _, ok := StoreIDOf(p, r); !ok {
		return 0, false
	}
	bit := r.Ord
	for _, ops := range p[:r.Thread] {
		bit += len(threadStores(ops))
	}
	return bit, true
}
