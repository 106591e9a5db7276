package relax

import (
	"math/rand"
	"testing"

	"strandweaver/internal/persistcheck"
	"strandweaver/internal/pmo"
)

// checkRoutes holds the order route's three checks to the mask family
// on one-thread programs cur and cand with the same stores:
//   - the inclusion gate (cand's order within cur's) agrees with the
//     family comparison (cand's cuts cover cur's);
//   - for every store pair, the requirement bit (a = b, or a before b
//     in the order) agrees with "no cut holds b without a";
//   - each program's downset count equals len(pmo.CutMasks).
func checkRoutes(t testing.TB, cur, cand pmo.Program) {
	t.Helper()
	order := newOracle(cur, nil)
	if order.masks {
		t.Fatalf("stores on several threads:\n%s", cur)
	}
	masks := &oracle{masks: true}
	o, c := measure(cur), measure(cand)
	om, cm := measure(cur), measure(cand)
	for _, v := range []*version{om, cm} {
		if err := masks.enumerate(v); err != nil {
			t.Fatalf("CutMasks: %v\n%s", err, v.prog)
		}
	}
	if got, want := order.relaxes(o, c), masks.relaxes(om, cm); got != want {
		t.Fatalf("order inclusion says relaxes=%v, cut families say %v\ncurrent:\n%s\ncandidate:\n%s", got, want, cur, cand)
	}
	for a := 0; a < c.fp.Stores; a++ {
		for b := 0; b < c.fp.Stores; b++ {
			r := reqPair{before: a, after: b, ok: true}
			if got, want := order.holds(c, r), masks.holds(cm, r); got != want {
				t.Fatalf("requirement s%d -> s%d: order says holds=%v, cuts say %v\n%s", a, b, got, want, cand)
			}
		}
	}
	for _, v := range [][2]*version{{o, om}, {c, cm}} {
		if got, want := order.sets(v[0]), len(v[1].cuts); got != want {
			t.Fatalf("downset count %d, CutMasks has %d cuts\n%s", got, want, v[0].prog)
		}
	}
}

// programPair decodes data into two one-thread programs with the same
// stores. Byte i gives op i of p and what q does in its place:
//   - bits 0-2 mod 5 are p's op kind (store, load, PB, NS, JS) and bits
//     3-4 its location;
//   - bits 5-6 pick q's barrier (none, PB, NS, JS): q has it in place of
//     a barrier of p, and before a store or load of p.
//
// At most maxPairStores stores are kept, so the mask family stays
// small.
func programPair(data []byte) (p, q pmo.Program) {
	const maxPairStores = 14
	barriers := [...]pmo.Kind{pmo.KPB, pmo.KNS, pmo.KJS}
	var ps, qs []pmo.Op
	stores := 0
	for _, b := range data {
		kind := pmo.Kind(b & 7 % 5)
		loc := int(b>>3) & 3
		var qb []pmo.Op
		if pick := int(b>>5) & 3; pick > 0 {
			qb = []pmo.Op{{Kind: barriers[pick-1]}}
		}
		switch kind {
		case pmo.KStore:
			if stores == maxPairStores {
				continue
			}
			stores++
			op := pmo.St(loc, uint64(stores))
			ps = append(ps, op)
			qs = append(append(qs, qb...), op)
		case pmo.KLoad:
			ps = append(ps, pmo.Ld(loc))
			qs = append(append(qs, qb...), pmo.Ld(loc))
		default:
			ps = append(ps, pmo.Op{Kind: kind})
			qs = append(qs, qb...)
		}
	}
	return pmo.Program{ps}, pmo.Program{qs}
}

// TestOrderRouteMatchesMasks holds the order route to the mask family
// on random one-thread program pairs, both ways round.
func TestOrderRouteMatchesMasks(t *testing.T) {
	r := rand.New(rand.NewSource(0x1c1))
	relaxing := 0
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 1+r.Intn(24))
		r.Read(data)
		p, q := programPair(data)
		checkRoutes(t, p, q)
		checkRoutes(t, q, p)
		if measure(q).must.SubsetOf(measure(p).must) {
			relaxing++
		}
	}
	if relaxing == 0 {
		t.Error("no pair relaxed: the corpus never reaches the accepting side of the gate")
	}
}

// TestRecipeSearchRoutesMatch replays the pairs-2 and pairs-4 recipe
// searches and holds the order route to the mask family on every
// candidate of every program the searches visit.
func TestRecipeSearchRoutesMatch(t *testing.T) {
	for _, pairs := range []int{2, 4} {
		for _, s := range recipeStreams(t, pairs) {
			res, err := OptimizeStream(s)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			if res.Status == StatusVisibilityOrdered {
				continue
			}
			replay(t, abstractInput(t, s), res, func(cur pmo.Program) {
				for _, c := range candidates(cur, persistcheck.AnalyzeProgram("relax", cur)) {
					checkRoutes(t, cur, c.apply(cur))
				}
			})
		}
	}
}

// FuzzOrderRouteMatchesMasks is TestOrderRouteMatchesMasks over
// fuzzed program pairs.
func FuzzOrderRouteMatchesMasks(f *testing.F) {
	for _, seed := range [][]byte{
		{0x00, 0x02, 0x00},             // p: ST; PB; ST, q: ST; ST
		{0x00, 0x24, 0x08, 0x03, 0x10}, // p: ST; JS; ST; NS; ST, q: ST; PB; ST; ST
		{0x40, 0x01, 0x60, 0x00, 0x04, 0x00},
		{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		p, q := programPair(data)
		checkRoutes(t, p, q)
		checkRoutes(t, q, p)
	})
}
