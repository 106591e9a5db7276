package undolog

import (
	"testing"

	"strandweaver/internal/mem"
)

// BenchmarkRecover times one recovery pass over a crash image shaped
// like a torture run's: 8 threads' logs of 4096 slots at the runtime's
// layout, each with its first 1024 slots written and invalidated by
// earlier commits, then 8 live entries, the 4th a commit marker, and
// the rest of the buffer never written (absent pages). Each iteration
// recovers a fresh clone, outside the timer.
func BenchmarkRecover(b *testing.B) {
	const (
		threads = 8
		entries = 4096
		written = 1024
	)
	img := mem.NewImage()
	ticket := uint64(0)
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		bufBase := mem.PMBase + BufOffset + mem.Addr(t*entries*mem.LineSize)
		img.Write64(desc+descMagic, Magic)
		img.Write64(desc+descBufBase, uint64(bufBase))
		img.Write64(desc+descEntries, entries)
		for s := uint64(0); s < written+8; s++ {
			ticket++
			target := mem.PMBase + HeapOffset + mem.Addr(t*4096) + mem.Addr(s%64)*8
			var flags uint64
			switch {
			case s < written:
				flags = 0 // committed and invalidated
			case s == written+3:
				flags = FlagValid | FlagCommitMarker
			default:
				flags = FlagValid
			}
			writeEntry(img, bufBase, s, target, s, ticket, flags)
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
