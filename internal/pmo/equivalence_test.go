package pmo_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"strandweaver/internal/litmus"
	"strandweaver/internal/persistcheck"
	"strandweaver/internal/pmo"
)

// checkEquivalent asserts that the builder's cut masks, persist sets
// and crash states equal the reference enumerator's.
func checkEquivalent(t *testing.T, name string, p pmo.Program) {
	t.Helper()
	masks, err := pmo.CutMasks(p)
	if err != nil {
		t.Fatalf("%s: CutMasks: %v\n%s", name, err, p)
	}
	if want := pmo.RefCutMasks(p); !slices.Equal(masks, want) {
		t.Fatalf("%s: cut masks differ from the reference\n%s\ngot  %b\nwant %b", name, p, masks, want)
	}
	var keys []string
	for _, s := range pmo.AllowedPersistSets(p) {
		keys = append(keys, s.Key())
	}
	if want := pmo.RefPersistSetKeys(p); !slices.Equal(keys, want) {
		t.Fatalf("%s: persist sets differ from the reference\n%s\ngot  %q\nwant %q", name, p, keys, want)
	}
	got, want := stateKeys(pmo.AllowedStates(p)), stateKeys(pmo.RefAllowedStates(p))
	if !slices.Equal(got, want) {
		t.Fatalf("%s: crash states differ from the reference\n%s\ngot  %q\nwant %q", name, p, got, want)
	}
}

func stateKeys(states map[string]pmo.State) []string {
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// randomProgram draws a program of 1-3 threads and at most 10 ops over
// three locations, with unique store values.
func randomProgram(r *rand.Rand) pmo.Program {
	threads := 1 + r.Intn(3)
	p := make(pmo.Program, threads)
	val := uint64(1)
	for i := 0; i < 3+r.Intn(8); i++ {
		t := r.Intn(threads)
		switch r.Intn(9) {
		case 0, 1, 2, 3:
			p[t] = append(p[t], pmo.St(r.Intn(3), val))
			val++
		case 4:
			p[t] = append(p[t], pmo.Ld(r.Intn(3)))
		case 5, 6:
			p[t] = append(p[t], pmo.PB())
		case 7:
			p[t] = append(p[t], pmo.NS())
		default:
			p[t] = append(p[t], pmo.JS())
		}
	}
	return p
}

// TestBuilderMatchesReference: on every standard litmus program and on
// 220 random programs of 1-3 threads, the builder allows exactly the
// reference enumerator's cuts and states.
func TestBuilderMatchesReference(t *testing.T) {
	progs := litmus.StandardPrograms()
	for _, name := range litmus.StandardProgramNames() {
		checkEquivalent(t, name, progs[name])
	}
	r := rand.New(rand.NewSource(0xb17)) // fixed seed: deterministic corpus
	multi := 0
	for i := 0; i < 220; i++ {
		p := randomProgram(r)
		if len(p) > 1 {
			multi++
		}
		checkEquivalent(t, "random", p)
	}
	if multi == 0 {
		t.Error("no multi-threaded program drawn; the property is not exercising interleavings")
	}
}

// decodeProgram turns fuzz bytes into a program of 1-3 threads and at
// most 10 ops: the first byte picks the thread count, each later byte
// one op (bits 0-3 the kind and location, bits 4-7 the thread).
func decodeProgram(data []byte) pmo.Program {
	if len(data) == 0 {
		return pmo.Program{{}}
	}
	p := make(pmo.Program, 1+int(data[0])%3)
	val := uint64(1)
	for _, b := range data[1:min(len(data), 11)] {
		t := int(b>>4) % len(p)
		switch k := b & 15; {
		case k < 6:
			p[t] = append(p[t], pmo.St(int(k)%3, val))
			val++
		case k < 8:
			p[t] = append(p[t], pmo.Ld(int(k)%3))
		case k < 11:
			p[t] = append(p[t], pmo.PB())
		case k < 13:
			p[t] = append(p[t], pmo.NS())
		default:
			p[t] = append(p[t], pmo.JS())
		}
	}
	return p
}

// FuzzOrderMatchesReference checks the builder against the reference
// enumerator on decoded programs, and that every persistcheck must-edge
// holds in every allowed cut. The seed corpus runs under go test.
func FuzzOrderMatchesReference(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0x00, 0x08, 0x01, 0x0b, 0x02},             // ST; PB; ST; NS; ST
		{0, 0x00, 0x0b, 0x01, 0x0d, 0x02},             // ST; NS; ST; JS; ST
		{1, 0x00, 0x0b, 0x01, 0x11, 0x18, 0x12},       // Fig. 2(i)-(j) shape
		{2, 0x00, 0x10, 0x20, 0x08, 0x18, 0x03, 0x13}, // three writers of one location
		{0, 0x00, 0x06, 0x0b, 0x08, 0x01, 0x0d},       // ST; LD; NS; PB; ST; JS
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		checkEquivalent(t, "fuzz", p)
		masks, _ := pmo.CutMasks(p)
		bit := func(id pmo.StoreID) uint64 {
			ref, _ := pmo.RefOf(p, id)
			b, _ := pmo.MaskBit(p, ref)
			return 1 << b
		}
		for _, e := range persistcheck.MustEdges(p) {
			before, after := bit(e[0]), bit(e[1])
			for _, m := range masks {
				if m&after != 0 && m&before == 0 {
					t.Fatalf("must edge %v -> %v broken by allowed cut %b\n%s", e[0], e[1], m, p)
				}
			}
		}
	})
}

// BenchmarkCutMasks enumerates the allowed cuts of a 14-store
// single-thread program shaped like the relaxed undo-log recipe at
// four pairs: four log/data strands joined before a commit marker.
func BenchmarkCutMasks(b *testing.B) {
	var ops []pmo.Op
	val := uint64(1)
	st := func(loc int) pmo.Op { val++; return pmo.St(loc, val) }
	for i := 0; i < 4; i++ {
		ops = append(ops, pmo.Ld(2*i), st(100+i), pmo.PB(), st(2*i), pmo.NS())
	}
	ops = append(ops, pmo.JS(), st(200), pmo.PB())
	for i := 0; i < 4; i++ {
		ops = append(ops, st(300+i))
	}
	ops = append(ops, pmo.NS(), st(400))
	p := pmo.Program{ops}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pmo.CutMasks(p); err != nil {
			b.Fatal(err)
		}
	}
}
