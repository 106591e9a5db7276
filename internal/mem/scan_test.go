package mem

import (
	"math/rand"
	"testing"
)

// checkNextNonzero64 builds an image from seed and holds
// NextNonzero64(a, stride, from, n) to the Read64 loop it replaces. The
// image gets random words and bytes around the scanned range, zero
// writes (present but zero pages), pages left absent, captures that
// share pages (Freeze, Clone) and restores that drop them, and reads
// that fill the hot cache with present and absent pages. A third of the
// scans run on a frozen view.
func checkNextNonzero64(t *testing.T, seed int64, a Addr, stride, from, n uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	span := n*stride + 2*PageBytes
	if stride > 1<<20 || span > 1<<24 {
		span = 1 << 24
	}
	// at picks a write address: anywhere around the range, at a slot,
	// or at a slot whose word straddles into the next page.
	var straddlers []Addr
	for i := from; i < n && len(straddlers) < 8; i++ {
		if s := a + Addr(i*stride); uint64(s)&(PageBytes-1) > PageBytes-8 {
			straddlers = append(straddlers, s)
		}
	}
	aim := rng.Intn(3)
	at := func() Addr {
		switch {
		case aim == 1 && n > from:
			return a + Addr((from+uint64(rng.Int63n(int64(n-from))))*stride)
		case aim == 2 && len(straddlers) > 0:
			return straddlers[rng.Intn(len(straddlers))]
		}
		return a - PageBytes + Addr(rng.Int63n(int64(span)))
	}
	// word is a value with one to eight nonzero bytes, so a straddling
	// slot may be nonzero on either side of the boundary only.
	word := func() uint64 {
		return rng.Uint64() >> (8 * uint(rng.Intn(8))) << (8 * uint(rng.Intn(8)))
	}
	im := NewImage()
	var snap *Image
	for k := rng.Intn(64); k > 0; k-- {
		switch r := rng.Intn(16); {
		case r < 8:
			im.Write64(at(), word())
		case r < 9:
			im.SetByte(at(), byte(rng.Intn(256)))
		case r < 10 && len(straddlers) > 0:
			// Only the part of a straddling word past the boundary, so
			// the page the word starts in may stay absent.
			s := straddlers[rng.Intn(len(straddlers))]
			next := s | (PageBytes - 1) + 1
			im.SetByte(next+Addr(rng.Intn(int(s+8-next))), byte(1+rng.Intn(255)))
		case r < 11:
			im.Write64(at(), 0)
		case r < 12:
			snap = im.Freeze()
		case r < 13:
			im = im.Clone()
		case r < 14:
			if snap != nil {
				im.CopyFrom(snap)
			}
		default:
			_ = im.Read64(at())
		}
	}
	if rng.Intn(3) == 0 {
		im = im.Freeze()
	}
	want := func() (uint64, uint64, bool) {
		for i := from; i < n; i++ {
			if v := im.Read64(a + Addr(i*stride)); v != 0 {
				return i, v, true
			}
		}
		return 0, 0, false
	}
	before := im.Fingerprint()
	gi, gv, gok := im.NextNonzero64(a, stride, from, n)
	wi, wv, wok := want()
	if gi != wi || gv != wv || gok != wok {
		t.Fatalf("NextNonzero64(%#x, %d, %d, %d) = (%d, %#x, %v), Read64 loop (%d, %#x, %v)",
			uint64(a), stride, from, n, gi, gv, gok, wi, wv, wok)
	}
	// Again after the reference loop filled the hot cache, which the
	// straddling reads go through.
	if gi, gv, gok = im.NextNonzero64(a, stride, from, n); gi != wi || gv != wv || gok != wok {
		t.Fatalf("NextNonzero64(%#x, %d, %d, %d) on a warm cache = (%d, %#x, %v), Read64 loop (%d, %#x, %v)",
			uint64(a), stride, from, n, gi, gv, gok, wi, wv, wok)
	}
	if im.Fingerprint() != before {
		t.Fatal("NextNonzero64 changed the image")
	}
}

// TestNextNonzero64MatchesRead64Loop runs the scan contract over seeded
// random addresses, strides and ranges, biased toward page boundaries
// and the top of the address space.
func TestNextNonzero64MatchesRead64Loop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		var a Addr
		switch rng.Intn(4) {
		case 0:
			a = Addr(rng.Uint64())
		case 1: // near a page boundary
			a = Addr(rng.Intn(64))*PageBytes - Addr(rng.Intn(16))
		case 2: // near 2^64
			a = 0 - Addr(rng.Intn(4*PageBytes))
		case 3: // a log's flags words
			a = PMBase + Addr(rng.Intn(1<<20)) + 40
		}
		strides := []uint64{0, 1, 3, 8, 64, 64, 64, 100, PageBytes - 8, PageBytes + 1, 1 << 40}
		stride := strides[rng.Intn(len(strides))]
		from, n := uint64(rng.Intn(64)), uint64(rng.Intn(600))
		checkNextNonzero64(t, rng.Int63(), a, stride, from, n)
	}
}

// FuzzNextNonzero64 holds the scan to the Read64 loop on images built
// from the fuzzed seed around the fuzzed address, stride and range.
func FuzzNextNonzero64(f *testing.F) {
	f.Add(int64(1), uint64(PMBase+PageBytes-44+40), uint16(64), uint16(0), uint16(200))
	f.Add(int64(2), uint64(1<<64-100+40), uint16(64), uint16(0), uint16(16))
	f.Add(int64(3), uint64(PageBytes-3), uint16(1), uint16(0), uint16(40))
	f.Add(int64(4), uint64(7), uint16(0), uint16(0), uint16(3))
	f.Add(int64(5), uint64(PageBytes*5-8), uint16(PageBytes+1), uint16(2), uint16(30))
	f.Fuzz(func(t *testing.T, seed int64, a uint64, stride, from, count uint16) {
		checkNextNonzero64(t, seed, Addr(a), uint64(stride), uint64(from%1024), uint64(count%2048))
	})
}
