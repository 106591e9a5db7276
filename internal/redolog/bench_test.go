package redolog

import (
	"testing"

	"strandweaver/internal/mem"
)

// BenchmarkRecover times one redo recovery pass over a crash image
// shaped like a torture run's: 8 threads' logs of 4096 slots, each with
// its first 1024 slots written and invalidated by earlier group
// commits, then one committed transaction of 3 stores and one of 2
// stores without its commit record, and the rest of the buffer never
// written (absent pages). Each iteration recovers a fresh clone,
// outside the timer.
func BenchmarkRecover(b *testing.B) {
	const (
		threads = 8
		entries = 4096
		written = 1024
	)
	img := mem.NewImage()
	seq := uint64(0)
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		bufBase := mem.PMBase + bufOffset + mem.Addr(t*entries*mem.LineSize)
		img.Write64(desc+descMagic, Magic)
		img.Write64(desc+descBufBase, uint64(bufBase))
		img.Write64(desc+descEntries, entries)
		target := func(s uint64) mem.Addr { return targetA + mem.Addr(t*4096) + mem.Addr(s%64)*8 }
		s := uint64(0)
		for ; s < written; s++ {
			seq++
			writeStoreEntry(img, bufBase, s, target(s), s, s/4, seq)
			img.Write64(bufBase+mem.Addr(s*mem.LineSize)+entFlags, 0) // reclaimed
		}
		for tx, stores := range []int{3, 2} {
			txid := written/4 + uint64(tx)
			for k := 0; k < stores; k, s = k+1, s+1 {
				seq++
				writeStoreEntry(img, bufBase, s, target(s), s, txid, seq)
			}
			if tx == 0 {
				seq++
				writeCommitEntry(img, bufBase, s, txid, seq)
				s++
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		crash := img.Clone()
		b.StartTimer()
		if _, err := Recover(crash, threads); err != nil {
			b.Fatal(err)
		}
	}
}
