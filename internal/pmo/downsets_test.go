package pmo

import (
	"testing"
	"time"
)

// grid returns the order of the a×b product of chains: (i, j) before
// (i', j') when i <= i' and j <= j', closed.
func grid(a, b int) *Relation {
	r := NewRelation(a * b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			for i2 := i; i2 < a; i2++ {
				for j2 := j; j2 < b; j2++ {
					if i2 != i || j2 != j {
						r.Add(i*b+j, i2*b+j2)
					}
				}
			}
		}
	}
	return r
}

// TestDownsetsClosedForms checks the count on orders whose downsets
// have closed forms: an antichain of k has 2^k, a chain of n has n+1,
// the a×b grid has C(a+b, a), and disjoint parts multiply.
func TestDownsetsClosedForms(t *testing.T) {
	chains := func(k, length int) *Relation { // k disjoint chains
		r := NewRelation(k * length)
		for c := 0; c < k; c++ {
			for i := 0; i < length; i++ {
				for j := i + 1; j < length; j++ {
					r.Add(c*length+i, c*length+j)
				}
			}
		}
		return r
	}
	for _, c := range []struct {
		name string
		r    *Relation
		want int
	}{
		{"empty", NewRelation(0), 1},
		{"antichain of 22", chains(22, 1), 1 << 22},
		{"chain of 130", chains(1, 130), 131},
		{"13 disjoint 2-chains", chains(13, 2), 1594323},
		{"10x10 grid", grid(10, 10), 184756},
		{"2x70 grid", grid(2, 70), 2556},
	} {
		n, ok := c.r.Downsets()
		if !ok || n != c.want {
			t.Errorf("%s: Downsets = %d, %v; want %d, true", c.name, n, ok, c.want)
		}
	}
}

// TestDownsetsPastTheCap: an order with more than MaxCuts downsets is
// reported past the cap, and finding that does not walk the cuts.
func TestDownsetsPastTheCap(t *testing.T) {
	wide := NewRelation(23)
	below := NewRelation(200) // 100 disjoint 2-chains: 3^100 downsets
	for c := 0; c < 100; c++ {
		below.Add(2*c, 2*c+1)
	}
	for _, r := range []*Relation{wide, below, grid(13, 13)} {
		start := time.Now()
		if n, ok := r.Downsets(); ok {
			t.Errorf("Downsets = %d within the cap, want past %d", n, MaxCuts)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("deciding past the cap took %v", d)
		}
	}
}

// TestCutCapDecidedBeforeWalking: a two-thread program of 23 mutually
// unordered stores has 2^23 cuts; forEachCut refuses it by counting
// the PMO's downsets, before emitting a single mask.
func TestCutCapDecidedBeforeWalking(t *testing.T) {
	var wide []Op
	for loc := 0; loc < 22; loc++ {
		wide = append(wide, St(loc, 1))
	}
	emitted := 0
	err := NewBuilder(Program{wide, {St(22, 1)}}).forEachCut(func(uint64, []int) { emitted++ })
	if err != errTooManyCuts || emitted != 0 {
		t.Errorf("forEachCut = %v after %d masks, want %v after none", err, emitted, errTooManyCuts)
	}
}
