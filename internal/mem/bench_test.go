package mem

import (
	"fmt"
	"testing"
)

// The checkpoint micro-benchmarks back the O(dirty) claims in
// docs/SNAPSHOT.md: Snapshot costs O(pages) pointer work and no page
// bytes regardless of footprint, Restore costs O(pages diverged), a
// COW fault costs one page copy, and CrashImage is a pointer-copy
// clone. CI runs them at -benchtime=1x as a smoke test; the allocs
// columns (ReportAllocs) are the regression signal — a reappearing
// per-page 64 KiB copy shows up immediately.

var benchFootprints = []int{8, 256}

func benchMachine(pages int) *Machine {
	m := NewMachine()
	touchPages(m.Persistent, 0, pages, 2)
	return m
}

func BenchmarkSnapshot(b *testing.B) {
	for _, pages := range benchFootprints {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			m := benchMachine(pages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Snapshot()
			}
		})
	}
}

// RestoreUndiverged is the floor: nothing changed since the
// checkpoint, so the restore is a pure O(pages) pointer scan.
func BenchmarkRestoreUndiverged(b *testing.B) {
	for _, pages := range benchFootprints {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			m := benchMachine(pages)
			s := m.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Restore(s)
			}
		})
	}
}

// RestoreDiverged pays for exactly the pages written since the
// checkpoint (one COW fault plus one re-point per iteration); the
// footprint beyond the dirty page only adds pointer-scan time.
func BenchmarkRestoreDiverged(b *testing.B) {
	for _, pages := range benchFootprints {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			m := benchMachine(pages)
			s := m.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Persistent.SetByte(0, byte(i)) // COW fault: diverge one page
				m.Restore(s)
			}
		})
	}
}

func BenchmarkCrashImage(b *testing.B) {
	for _, pages := range benchFootprints {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			m := benchMachine(pages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.CrashImage()
			}
		})
	}
}

// COWFault isolates the deferred per-page capture cost: freeze, then
// first write to a captured page (one 64 KiB copy).
func BenchmarkCOWFault(b *testing.B) {
	im := NewImage()
	im.SetByte(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = im.Freeze()
		im.SetByte(0, byte(i))
	}
}

// Snapshot's allocation count must not scale with the footprint: the
// 32x page-count spread may cost a few extra map buckets, never
// per-page copies (one 64 KiB array each).
func TestSnapshotAllocsFootprintIndependent(t *testing.T) {
	allocsAt := func(pages int) float64 {
		m := benchMachine(pages)
		return testing.AllocsPerRun(10, func() { _ = m.Snapshot() })
	}
	small, large := allocsAt(benchFootprints[0]), allocsAt(benchFootprints[1])
	if large >= float64(benchFootprints[1]) {
		t.Errorf("Snapshot of a %d-page machine did %.0f allocs: per-page copying is back", benchFootprints[1], large)
	}
	if large > small+24 {
		t.Errorf("Snapshot allocs scale with footprint: %.0f at %d pages vs %.0f at %d pages",
			large, benchFootprints[1], small, benchFootprints[0])
	}
}
