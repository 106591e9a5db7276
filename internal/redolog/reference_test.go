package redolog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"strandweaver/internal/faultinject"
	"strandweaver/internal/mem"
	"strandweaver/internal/undolog"
)

// referenceRecover is redo recovery as first written: one Read64 per
// slot for the flags word. Recover finds the same slots with a
// page-at-a-time scan (mem.Image.NextNonzero64); the tests below hold
// it to this reference in its report, its recovered image and, through
// a power cut at every write budget, its exact sequence of mutating
// calls.
func referenceRecover(img *mem.Image, threads int) (*Report, error) {
	rep := &Report{}
	var all []scanned
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		if img.Read64(desc+descMagic) != Magic {
			continue
		}
		rep.ThreadsScanned++
		bufBase := mem.Addr(img.Read64(desc + descBufBase))
		entries := img.Read64(desc + descEntries)
		if entries == 0 || entries > 1<<24 {
			return rep, fmt.Errorf("redolog: thread %d descriptor has implausible entry count %d", t, entries)
		}
		for s := uint64(0); s < entries; s++ {
			e := bufBase + mem.Addr(s*mem.LineSize)
			if img.Read64(e+entFlags)&flagValid == 0 {
				continue
			}
			s := scanned{
				thread: t,
				addr:   e,
				typ:    img.Read64(e + entType),
				target: mem.Addr(img.Read64(e + entAddr)),
				val:    img.Read64(e + entNew),
				txid:   img.Read64(e + entTxID),
				seq:    img.Read64(e + entSeq),
			}
			if img.Read64(e+entCheck) != entryChecksum(s.typ, s.target, s.val, s.txid, s.seq) {
				img.Write64(e+entFlags, 0)
				rep.TornDiscarded++
				continue
			}
			all = append(all, s)
		}
	}
	type txKey struct {
		thread int
		txid   uint64
	}
	committed := map[txKey]bool{}
	seenTx := map[txKey]bool{}
	for _, s := range all {
		k := txKey{s.thread, s.txid}
		seenTx[k] = true
		if s.typ == typeCommit {
			committed[k] = true
		}
	}
	for k := range seenTx {
		if committed[k] {
			rep.CommittedTxs++
		} else {
			rep.DiscardedTxs++
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, s := range all {
		if s.typ == typeStore && committed[txKey{s.thread, s.txid}] {
			img.Write64(s.target, s.val)
			rep.Replayed = append(rep.Replayed, ReplayedWrite{
				Thread: s.thread, TxID: s.txid, Addr: s.target, Val: s.val,
			})
		}
		img.Write64(s.addr+entFlags, 0)
	}
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		if img.Read64(desc+descMagic) == Magic {
			img.Write64(desc+descHead, 0)
		}
	}
	return rep, nil
}

// randomCrashImage builds a seeded hostile redo-log crash image: up to
// four thread logs, some without a descriptor, placed at the runtime's
// aligned layout, across a 4 KiB page boundary (slot 0's flags word
// straddles it), at an unaligned offset, or so close to 2^64 that the
// slots wrap. Slots are filled in runs, so long empty runs leave whole
// pages absent while others are present but zero; the filled slots mix
// store entries and commit records of a few transactions per thread,
// torn entries, invalidated entries, unknown types and flags words
// without the valid bit. Writes now and then freeze the image
// mid-build, so the scan also reads pages shared with a capture.
func randomCrashImage(rng *rand.Rand) (*mem.Image, int) {
	img := mem.NewImage()
	threads := 1 + rng.Intn(4)
	seq := uint64(1 + rng.Intn(1000))
	heap := mem.PMBase + undolog.HeapOffset
	for t := 0; t < threads; t++ {
		if rng.Intn(6) == 0 {
			continue // a hole in the thread list
		}
		entries := uint64(1 + rng.Intn(160))
		if rng.Intn(40) == 0 {
			entries = 0 // implausible: recovery must stop with an error
		}
		var bufBase mem.Addr
		switch rng.Intn(4) {
		case 0:
			bufBase = mem.PMBase + bufOffset + mem.Addr(t)<<16
		case 1:
			bufBase = mem.PMBase + mem.Addr(2+rng.Intn(8))*mem.PageBytes - entFlags - mem.Addr(1+rng.Intn(7))
		case 2:
			bufBase = mem.PMBase + bufOffset + mem.Addr(t)<<16 + mem.Addr(rng.Intn(mem.PageBytes))
		case 3:
			bufBase = 0 - mem.Addr(rng.Intn(int(entries)+1))*mem.LineSize - mem.Addr(rng.Intn(64))
		}
		desc := DescAddr(t)
		img.Write64(desc+descMagic, Magic)
		img.Write64(desc+descBufBase, uint64(bufBase))
		img.Write64(desc+descEntries, entries)
		img.Write64(desc+descHead, uint64(rng.Intn(int(entries)+1)))

		for s := uint64(0); s < entries; {
			run := min(uint64(1+rng.Intn(100)), entries-s)
			dense := rng.Intn(3) != 0
			for end := s + run; s < end; s++ {
				e := bufBase + mem.Addr(s*mem.LineSize)
				if !dense {
					if rng.Intn(8) == 0 {
						img.Write64(e+entFlags, 0) // present but zero
					}
					continue
				}
				txid := uint64(1 + rng.Intn(4))
				typ := uint64(typeStore)
				var target mem.Addr
				var val uint64
				switch r := rng.Intn(10); {
				case r < 3:
					typ = typeCommit
				case r < 4:
					typ = uint64(rng.Intn(8)) // mostly unknown types
				default:
					target = heap + mem.Addr(rng.Intn(6))*mem.PageBytes/2 + mem.Addr(rng.Intn(3))*8
					if rng.Intn(10) == 0 {
						target = heap + mem.PageBytes - 3 // straddles a page
					}
					val = rng.Uint64()
				}
				sq := seq + uint64(rng.Intn(int(entries)))
				check := entryChecksum(typ, target, val, txid, sq)
				var flags uint64
				switch r := rng.Intn(10); {
				case r < 7:
					flags = flagValid
				case r < 8:
					flags = flagValid
					check ^= 1 << rng.Intn(64) // torn
				case r < 9:
					flags = 0 // invalidated
				default:
					flags = 2 // nonzero, never valid
				}
				img.Write64(e+entType, typ)
				img.Write64(e+entAddr, uint64(target))
				img.Write64(e+entNew, val)
				img.Write64(e+entTxID, txid)
				img.Write64(e+entSeq, sq)
				img.Write64(e+entCheck, check)
				img.Write64(e+entFlags, flags)
				if rng.Intn(50) == 0 {
					_ = img.Freeze()
				}
			}
		}
		seq += entries
	}
	return img, threads + rng.Intn(2)
}

// TestRecoverMatchesReference holds Recover to referenceRecover on
// seeded hostile crash images: same report, same recovered image, and
// the same image after a power cut at every write budget 0..N, which
// pins the order and content of every mutating call.
func TestRecoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 100
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		img, threads := randomCrashImage(rng)
		got, want := img.Clone(), img.Clone()
		gr, gerr := Recover(got, threads)
		wr, werr := referenceRecover(want, threads)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gerr, werr)
		}
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("trial %d: report %+v, reference %+v", trial, gr, wr)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: recovered image differs from the reference's", trial)
		}
		for n := 0; ; n++ {
			g, w := img.Clone(), img.Clone()
			gcut, gerr := faultinject.RunToPowerCut(g, n, func() error { _, err := Recover(g, threads); return err })
			wcut, werr := faultinject.RunToPowerCut(w, n, func() error { _, err := referenceRecover(w, threads); return err })
			if gcut != wcut || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("trial %d budget %d: power cut %v (err %v), reference %v (err %v)", trial, n, gcut, gerr, wcut, werr)
			}
			if !g.Equal(w) {
				t.Fatalf("trial %d budget %d: image after the power cut differs from the reference's", trial, n)
			}
			if !gcut {
				break
			}
		}
	}
}
