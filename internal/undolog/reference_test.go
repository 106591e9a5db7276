package undolog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"strandweaver/internal/faultinject"
	"strandweaver/internal/mem"
)

// referenceRecover is recovery as first written: one Read64 per slot
// for the flags word. Recover finds the same slots with a page-at-a-time
// scan (mem.Image.NextNonzero64); the tests below hold it to this
// reference in its report, its recovered image and, through a power cut
// at every write budget, its exact sequence of mutating calls.
func referenceRecover(img *mem.Image, threads int) (*Report, error) {
	rep := &Report{}
	var live []scannedEntry
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		if img.Read64(desc+descMagic) != Magic {
			continue
		}
		rep.ThreadsScanned++
		bufBase := mem.Addr(img.Read64(desc + descBufBase))
		entries := img.Read64(desc + descEntries)
		if entries == 0 || entries > 1<<24 {
			return rep, fmt.Errorf("undolog: thread %d descriptor has implausible entry count %d", t, entries)
		}
		var valid []scannedEntry
		markerTicket := uint64(0)
		markerSeen := false
		for s := uint64(0); s < entries; s++ {
			e := bufBase + mem.Addr(s*mem.LineSize)
			flags := img.Read64(e + entFlags)
			if flags&FlagValid == 0 {
				continue
			}
			se := scannedEntry{
				thread: t,
				addr:   e,
				typ:    EntryType(img.Read64(e + entType)),
				target: mem.Addr(img.Read64(e + entAddr)),
				old:    img.Read64(e + entOld),
				ticket: img.Read64(e + entSeq),
				flags:  flags,
			}
			size := img.Read64(e + entSize)
			meta := img.Read64(e + entMeta)
			if img.Read64(e+entCheck) != EntryChecksum(se.typ, se.target, se.old, size, se.ticket, meta) {
				img.Write64(e+entFlags, 0)
				rep.TornDiscarded++
				continue
			}
			valid = append(valid, se)
			if flags&FlagCommitMarker != 0 && (!markerSeen || se.ticket > markerTicket) {
				markerSeen = true
				markerTicket = se.ticket
			}
		}
		if markerSeen {
			rep.CommitsFinished++
		}
		var markers []scannedEntry
		for _, se := range valid {
			if markerSeen && se.ticket <= markerTicket {
				if se.flags&FlagCommitMarker != 0 {
					markers = append(markers, se)
					continue
				}
				img.Write64(se.addr+entFlags, 0)
				rep.EntriesInvalidated++
				continue
			}
			live = append(live, se)
		}
		sort.Slice(markers, func(i, j int) bool { return markers[i].ticket < markers[j].ticket })
		for _, se := range markers {
			img.Write64(se.addr+entFlags, 0)
			rep.EntriesInvalidated++
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ticket > live[j].ticket })
	for _, se := range live {
		if se.typ != EntryStore {
			img.Write64(se.addr+entFlags, 0)
			continue
		}
		img.Write64(se.target, se.old)
		img.Write64(se.addr+entFlags, 0)
		rep.RolledBack = append(rep.RolledBack, RecoveredEntry{
			Thread: se.thread, Ticket: se.ticket, Addr: se.target, Old: se.old,
		})
	}
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		if img.Read64(desc+descMagic) == Magic {
			img.Write64(desc+descHead, 0)
		}
	}
	return rep, nil
}

// randomCrashImage builds a seeded hostile crash image: up to four
// thread logs, some without a descriptor, placed at the runtime's
// aligned layout, across a 4 KiB page boundary (slot 0's flags word
// straddles it), at an unaligned offset, or so close to 2^64 that the
// slots wrap. Slots are filled in runs, so long empty runs leave whole
// pages absent while others are present but zero; the filled slots mix
// valid store and sync entries, commit markers over wrapped ticket
// ranges, torn entries, invalidated entries and flags words with only
// the marker bit. Writes now and then freeze the image mid-build, so
// the scan also reads pages shared with a capture.
func randomCrashImage(rng *rand.Rand) (*mem.Image, int) {
	img := mem.NewImage()
	threads := 1 + rng.Intn(4)
	ticket := uint64(1 + rng.Intn(1000))
	heap := mem.PMBase + HeapOffset
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
			bufBase = mem.PMBase + BufOffset + mem.Addr(t)<<16
		case 1:
			bufBase = mem.PMBase + mem.Addr(2+rng.Intn(8))*mem.PageBytes - entFlags - mem.Addr(1+rng.Intn(7))
		case 2:
			bufBase = mem.PMBase + BufOffset + mem.Addr(t)<<16 + mem.Addr(rng.Intn(mem.PageBytes))
		case 3:
			bufBase = 0 - mem.Addr(rng.Intn(int(entries)+1))*mem.LineSize - mem.Addr(rng.Intn(64))
		}
		desc := DescAddr(t)
		img.Write64(desc+descMagic, Magic)
		img.Write64(desc+descBufBase, uint64(bufBase))
		img.Write64(desc+descEntries, entries)
		img.Write64(desc+descHead, uint64(rng.Intn(int(entries)+1)))

		// Tickets rise from a random start slot and wrap the buffer, so
		// a marker at a low slot can cover entries at higher ones.
		start := uint64(rng.Intn(int(entries) + 1))
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
				tk := ticket + (s+entries-start)%entries
				typ := EntryStore
				if rng.Intn(5) == 0 {
					typ = EntryType(2 + rng.Intn(4))
				}
				target := heap + mem.Addr(rng.Intn(6))*mem.PageBytes/2 + mem.Addr(rng.Intn(3))*8
				if rng.Intn(10) == 0 {
					target = heap + mem.PageBytes - 3 // straddles a page
				}
				old, size, meta := rng.Uint64(), uint64(8), uint64(rng.Intn(2))*uint64(heap)
				check := EntryChecksum(typ, target, old, size, tk, meta)
				var flags uint64
				switch r := rng.Intn(10); {
				case r < 5:
					flags = FlagValid
				case r < 7:
					flags = FlagValid | FlagCommitMarker
				case r < 8:
					flags = FlagValid
					check ^= 1 << rng.Intn(64) // torn
				case r < 9:
					flags = 0 // invalidated
				default:
					flags = FlagCommitMarker // nonzero, never valid
				}
				img.Write64(e+entType, uint64(typ))
				img.Write64(e+entAddr, uint64(target))
				img.Write64(e+entOld, old)
				img.Write64(e+entSize, size)
				img.Write64(e+entSeq, tk)
				img.Write64(e+entMeta, meta)
				img.Write64(e+entCheck, check)
				img.Write64(e+entFlags, flags)
				if rng.Intn(50) == 0 {
					_ = img.Freeze()
				}
			}
		}
		ticket += entries
	}
	return img, threads + rng.Intn(2)
}

// TestRecoverMatchesReference holds Recover to referenceRecover on
// seeded hostile crash images: same report, same recovered image, and
// the same image after a power cut at every write budget 0..N, which
// pins the order and content of every mutating call.
func TestRecoverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
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
