// Package pmo is an executable formal model of the strand persistency
// memory model (paper Section III). It holds the one builder of the
// persist memory order (PMO) prescribed by Equations 1-4 (order.go:
// bitset rows, projected onto the stores) and derives from it every
// post-crash PM state and crash cut a small multi-threaded program
// allows. Within one interleaving the allowed crash cuts are exactly
// the downsets of the store-projected PMO; CutMasks returns their union
// over interleavings as sorted store masks, and Relation.Downsets
// counts the downsets of one order without listing them. The static
// analyzer (internal/persistcheck) takes its must-persist-before
// relation from the same builder; the auto-relaxation optimizer
// (internal/relax) proves a one-thread rewrite by inclusion of that
// relation and a multi-thread one against CutMasks; and the timing
// simulator is cross-validated against AllowedStates: any crash state
// the hardware produces must be allowed here.
//
// The model works at the abstraction of the paper's Figure 2: a "store"
// is a persist (the flush is implicit), loads participate in ordering
// only through Equations 1-2 and transitivity (never through strong
// persist atomicity), and volatile memory order (VMO) is a total
// interleaving of the threads' program orders (TSO without store
// buffering, which is conservative for visibility and exact for the
// litmus shapes of Figure 2).
package pmo

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates abstract litmus operations.
type Kind uint8

const (
	// KStore persists a value to a location.
	KStore Kind = iota
	// KLoad reads a location (orders only via Eq. 1-2 + transitivity).
	KLoad
	// KPB is a persist barrier.
	KPB
	// KNS is NewStrand.
	KNS
	// KJS is JoinStrand.
	KJS
)

// Op is one abstract operation.
type Op struct {
	Kind Kind
	// Loc is the persistent location (stores/loads only).
	Loc int
	// Val is the stored value (stores only); values should be unique per
	// location per program for unambiguous states.
	Val uint64
	// Label optionally names the op in diagnostics.
	Label string
}

// St returns a store op.
func St(loc int, val uint64) Op { return Op{Kind: KStore, Loc: loc, Val: val} }

// Ld returns a load op.
func Ld(loc int) Op { return Op{Kind: KLoad, Loc: loc} }

// PB returns a persist barrier.
func PB() Op { return Op{Kind: KPB} }

// NS returns a NewStrand.
func NS() Op { return Op{Kind: KNS} }

// JS returns a JoinStrand.
func JS() Op { return Op{Kind: KJS} }

// Program is one abstract op sequence per thread.
type Program [][]Op

// State maps location to its post-crash value; locations absent from the
// map hold the initial value 0.
type State map[int]uint64

// Key renders a canonical string for set membership and diagnostics.
func (s State) Key() string {
	locs := make([]int, 0, len(s))
	for l, v := range s {
		if v != 0 {
			locs = append(locs, l)
		}
	}
	sort.Ints(locs)
	var b strings.Builder
	for i, l := range locs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d=%d", l, s[l])
	}
	return b.String()
}

// StoreID names one store instance of a Program by its thread and its
// index in that thread's op sequence. It is the currency of the model's
// introspection API (AllowedPersistSets) and of the static analyzer's
// must-persist-before edges (internal/persistcheck).
type StoreID struct {
	Thread int
	Index  int
}

func (id StoreID) String() string { return fmt.Sprintf("t%d#%d", id.Thread, id.Index) }

// PersistSet is one model-allowed crash cut: the set of stores whose
// persists landed before the crash.
type PersistSet map[StoreID]bool

// Key renders a canonical string for set membership and diagnostics.
func (s PersistSet) Key() string {
	ids := make([]StoreID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Thread != ids[j].Thread {
			return ids[i].Thread < ids[j].Thread
		}
		return ids[i].Index < ids[j].Index
	})
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(id.String())
	}
	return b.String()
}

// AllowedStates returns every crash state reachable under some
// interleaving and some PMO-downward-closed persist set. It panics when
// the program exceeds the builder's limits: more than MaxMaskStores
// stores, more than 2^17 interleavings of its stores, or more than 2^22
// allowed cuts (23 mutually unordered stores reach that).
// Builder.States returns the same as an error.
func AllowedStates(p Program) map[string]State {
	out, err := NewBuilder(p).States()
	if err != nil {
		panic(err)
	}
	return out
}

// AllowedPersistSets enumerates every crash cut the model allows: for
// each interleaving, every PMO-downward-closed subset of the program's
// persists, identified by StoreID. The result is deduplicated across
// interleavings and sorted by canonical key, so it is deterministic.
// This is the model-side half of the static/dynamic differential check:
// a static must-persist-before edge a->b is sound iff no allowed set
// contains b without a. It panics where AllowedStates does; CutMasks
// returns the same cuts as store masks, or an error.
func AllowedPersistSets(p Program) []PersistSet {
	b := NewBuilder(p)
	masks, err := b.Cuts()
	if err != nil {
		panic(err)
	}
	type keyed struct {
		key string
		set PersistSet
	}
	sets := make([]keyed, len(masks))
	for i, m := range masks {
		set := make(PersistSet)
		for s, id := range b.stores {
			if m&(1<<s) != 0 {
				set[id] = true
			}
		}
		sets[i] = keyed{set.Key(), set}
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].key < sets[j].key })
	out := make([]PersistSet, len(sets))
	for i, k := range sets {
		out[i] = k.set
	}
	return out
}

// Allowed reports whether state is reachable for the program.
func Allowed(p Program, state State) bool {
	_, ok := AllowedStates(p)[state.Key()]
	return ok
}
