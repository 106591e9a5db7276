package pmo

// This file counts the crash cuts of one store order without writing
// them out. Within one interleaving the allowed cuts are exactly the
// downsets of the closed store order, so the count is the number of
// downsets of a finite poset. The count splits the poset rather than
// walking its downsets:
//
//   - the downsets of a disjoint union are the products of the parts'
//     downsets, so a set whose comparability graph is disconnected
//     counts as the product over its components;
//   - a downset either omits an element x, and then every element above
//     it, or holds x, and then every element below it, so
//     count(S) = count(S \ ↑x) + count(S \ ↓x). The pivot x is the
//     element comparable to the most others, which splits an ordinal
//     sum at its waist.
//
// Subsets are memoized and every partial count saturates just past
// MaxCuts, so finding that a wide order is past the cap takes a few
// splits, not MaxCuts steps.

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Downsets returns the number of downsets of r, which must be closed
// and acyclic (a strict partial order, as MustOrder returns), and
// whether that number is at most MaxCuts. Past the cap the count is
// not exact.
func (r *Relation) Downsets() (int, bool) {
	c := &downsetCounter{
		words: r.words,
		down:  make([]uint64, r.n*r.words),
		up:    make([]uint64, r.n*r.words),
		memo:  make(map[string]uint64),
		key:   make([]byte, 8*r.words),
	}
	all := make([]uint64, r.words)
	for b := 0; b < r.n; b++ {
		all[b>>6] |= 1 << (b & 63)
		copy(c.set(c.down, b), r.Row(b))
		c.set(c.down, b)[b>>6] |= 1 << (b & 63)
		c.set(c.up, b)[b>>6] |= 1 << (b & 63)
		for w, word := range r.Row(b) {
			for ; word != 0; word &= word - 1 {
				a := w<<6 + bits.TrailingZeros64(word)
				c.set(c.up, a)[b>>6] |= 1 << (b & 63)
			}
		}
	}
	n := c.count(all)
	return int(n), n <= MaxCuts
}

// downsetCounter holds, per element x, ↓x (x and its predecessors)
// and ↑x (x and its successors) as bitsets of words words each.
type downsetCounter struct {
	words    int
	down, up []uint64
	memo     map[string]uint64
	key      []byte
}

// set returns element x's bitset in rows.
func (c *downsetCounter) set(rows []uint64, x int) []uint64 {
	return rows[x*c.words : (x+1)*c.words]
}

// saturated is the value every count past the cap is clamped to.
const saturated = MaxCuts + 1

// count returns the number of downsets of the subposet s, clamped to
// saturated.
func (c *downsetCounter) count(s []uint64) uint64 {
	first := -1
	for w, word := range s {
		if word != 0 {
			first = w<<6 + bits.TrailingZeros64(word)
			break
		}
	}
	if first < 0 {
		return 1
	}
	for w, word := range s {
		binary.LittleEndian.PutUint64(c.key[8*w:], word)
	}
	if n, ok := c.memo[string(c.key)]; ok {
		return n
	}
	key := string(c.key)

	var n uint64
	if comp := c.component(s, first); !slices.Equal(comp, s) {
		if n = c.count(comp); n < saturated {
			n = min(n*c.count(without(s, comp)), saturated)
		}
	} else {
		x := c.pivot(s)
		n = c.count(without(s, c.set(c.up, x)))
		if n < saturated {
			n = min(n+c.count(without(s, c.set(c.down, x))), saturated)
		}
	}
	c.memo[key] = n
	return n
}

// component returns the elements of s connected to first by
// comparabilities within s.
func (c *downsetCounter) component(s []uint64, first int) []uint64 {
	comp := make([]uint64, c.words)
	comp[first>>6] |= 1 << (first & 63)
	frontier := []int{first}
	for len(frontier) > 0 {
		x := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		down, up := c.set(c.down, x), c.set(c.up, x)
		for w := range comp {
			add := (down[w] | up[w]) & s[w] &^ comp[w]
			comp[w] |= add
			for ; add != 0; add &= add - 1 {
				frontier = append(frontier, w<<6+bits.TrailingZeros64(add))
			}
		}
	}
	return comp
}

// pivot returns the element of s comparable to the most others in s.
func (c *downsetCounter) pivot(s []uint64) int {
	best, bestDeg := -1, -1
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			x := w<<6 + bits.TrailingZeros64(word)
			down, up := c.set(c.down, x), c.set(c.up, x)
			deg := 0
			for v := range s {
				deg += bits.OnesCount64((down[v] | up[v]) & s[v])
			}
			if deg > bestDeg {
				best, bestDeg = x, deg
			}
		}
	}
	return best
}

// without returns s minus t as a new set.
func without(s, t []uint64) []uint64 {
	out := make([]uint64, len(s))
	for w := range s {
		out[w] = s[w] &^ t[w]
	}
	return out
}
