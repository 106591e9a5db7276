package mem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// touchPages writes one distinguishable byte into each of n consecutive
// pages starting at base, so the image holds n materialised pages.
func touchPages(im *Image, base Addr, n int, v byte) {
	for i := 0; i < n; i++ {
		im.SetByte(base+Addr(i)*PageBytes, v+byte(i))
	}
}

// Freeze is O(pages) pointer work and zero page-byte copies: the
// allocation count must not scale with the footprint (a deep copy
// would allocate one PageBytes array per page).
func TestFreezeCopiesNoPageBytes(t *testing.T) {
	const pages = 64
	im := NewImage()
	touchPages(im, 0, pages, 1)
	allocs := testing.AllocsPerRun(10, func() {
		_ = im.Freeze()
	})
	// One Image struct plus one pre-sized map (a handful of bucket
	// allocations); far below one-allocation-per-page.
	if allocs > 10 {
		t.Errorf("Freeze of a %d-page image did %.0f allocs; want O(1), not O(pages)", pages, allocs)
	}
}

// A frozen view is immutable: writes and restores into it panic, and
// re-freezing it is the identity.
func TestFrozenImageImmutable(t *testing.T) {
	im := NewImage()
	im.SetByte(0, 7)
	f := im.Freeze()
	if !f.Frozen() || im.Frozen() {
		t.Fatalf("Frozen() = (view %v, live %v), want (true, false)", f.Frozen(), im.Frozen())
	}
	if f.Freeze() != f {
		t.Error("Freeze of a frozen view must return the view itself")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a frozen image did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("SetByte", func() { f.SetByte(0, 9) })
	mustPanic("Write64", func() { f.Write64(128, 1) })
	mustPanic("CopyFrom", func() { f.CopyFrom(im) })
	mustPanic("ResetPagesFrom", func() {
		f.ResetPagesFrom(im, map[Addr]struct{}{0: {}})
	})
}

// Writes after a capture must not reach the captured view, in both
// directions and for both capture flavours (Freeze and Clone).
func TestCOWIsolation(t *testing.T) {
	im := NewImage()
	im.SetByte(100, 1)
	f := im.Freeze()
	im.SetByte(100, 2)
	if got := f.ByteAt(100); got != 1 {
		t.Errorf("frozen view saw the post-capture write: got %d, want 1", got)
	}
	if got := im.ByteAt(100); got != 2 {
		t.Errorf("live image lost its write: got %d, want 2", got)
	}

	c := im.Clone()
	c.SetByte(100, 3)
	if got := im.ByteAt(100); got != 2 {
		t.Errorf("clone write leaked into the original: got %d, want 2", got)
	}
	im.SetByte(100, 4)
	if got := c.ByteAt(100); got != 3 {
		t.Errorf("original write leaked into the clone: got %d, want 3", got)
	}
}

// The counters tell the O(dirty) story: captures count ownership
// transitions, writes to shared pages count COW faults, and restores
// count only the pages that diverged since the checkpoint. Only the
// persistent image is captured, so volatile writes count nothing.
func TestCowStatsCounting(t *testing.T) {
	const pages = 8
	m := NewMachine()
	touchPages(m.Volatile, 0, pages, 1)
	touchPages(m.Persistent, 0, pages, 1)
	s := m.Snapshot()
	st := m.CowStats()
	if st.PagesFrozen != pages {
		t.Errorf("PagesFrozen = %d after first snapshot, want %d", st.PagesFrozen, pages)
	}

	// A second snapshot with nothing written is free: every page is
	// already shared, so no ownership transitions.
	_ = m.Snapshot()
	if got := m.CowStats().PagesFrozen; got != pages {
		t.Errorf("PagesFrozen = %d after idle re-snapshot, want %d (unchanged)", got, pages)
	}

	// Writing k distinct captured pages pays exactly k COW faults;
	// rewriting them is free, and so is writing the uncaptured
	// volatile image.
	const k = 3
	touchPages(m.Persistent, 0, k, 50)
	touchPages(m.Persistent, 0, k, 60)
	touchPages(m.Volatile, 0, k, 70)
	if got := m.CowStats().COWFaults; got != k {
		t.Errorf("COWFaults = %d after writing %d shared pages twice, want %d", got, k, k)
	}

	// Restoring re-points only the k diverged pages.
	m.Restore(s)
	if got := m.CowStats().RestoreDiverged; got != k {
		t.Errorf("RestoreDiverged = %d, want %d", got, k)
	}
	// And a second restore with nothing diverged re-points nothing.
	m.Restore(s)
	if got := m.CowStats().RestoreDiverged; got != k {
		t.Errorf("RestoreDiverged = %d after idle re-restore, want %d (unchanged)", got, k)
	}
}

// Equal exploits structural sharing: images related by capture compare
// page-by-page in pointer comparisons, and a COW-diverged page that
// holds the same bytes still compares equal (content semantics).
func TestEqualAcrossCOWRelatives(t *testing.T) {
	im := NewImage()
	touchPages(im, 0, 4, 1)
	f := im.Freeze()
	c := im.Clone()
	if !im.Equal(f) || !im.Equal(c) || !f.Equal(c) {
		t.Fatal("capture-related images must compare equal while undiverged")
	}
	// Rewrite a page with its existing contents: the pointer diverges
	// (COW fault) but the bytes do not.
	v := im.ByteAt(0)
	im.SetByte(0, v)
	if im.CowStats().COWFaults == 0 {
		t.Fatal("rewrite of a shared page did not COW-fault (test setup broken)")
	}
	if !im.Equal(f) {
		t.Error("byte-identical COW-diverged page must still compare equal")
	}
	im.SetByte(0, v+1)
	if im.Equal(f) {
		t.Error("diverged contents must compare unequal")
	}
	// Zero-filled pages equal absent pages in either direction.
	a, b := NewImage(), NewImage()
	a.SetByte(5*PageBytes, 0)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("an explicitly zero page must equal an absent page")
	}
}

// DirtyPages returns a stable copy: mutating it must not corrupt the
// tracker, and StopDirtyTracking hands back the final set.
func TestDirtyPagesStableView(t *testing.T) {
	im := NewImage()
	if im.DirtyPages() != nil {
		t.Error("DirtyPages must be nil when tracking is off")
	}
	im.TrackDirty()
	im.SetByte(0, 1)
	im.SetByte(PageBytes, 1)
	d := im.DirtyPages()
	if len(d) != 2 {
		t.Fatalf("DirtyPages = %d pages, want 2", len(d))
	}
	delete(d, 0) // caller-side mutation must not reach the tracker
	d[Addr(99*PageBytes)] = struct{}{}
	final := im.StopDirtyTracking()
	if len(final) != 2 {
		t.Errorf("StopDirtyTracking = %d pages, want 2 (caller mutation leaked in)", len(final))
	}
	if _, ok := final[0]; !ok {
		t.Error("StopDirtyTracking lost page 0 to a caller-side delete")
	}
	if im.DirtyPages() != nil {
		t.Error("DirtyPages must be nil after StopDirtyTracking")
	}
}

// PageRefs accounts unique storage by pointer identity: structurally
// shared pages count once no matter how many images retain them.
func TestPageRefsAccounting(t *testing.T) {
	im := NewImage()
	touchPages(im, 0, 4, 1)
	f1 := im.Freeze()
	im.SetByte(0, 99) // diverge one page
	f2 := im.Freeze()

	r := NewPageRefs()
	r.Retain(f1, f2)
	// f1 and f2 share 3 pages; f2 holds the diverged copy of page 0.
	if got := r.UniquePages(); got != 5 {
		t.Errorf("UniquePages = %d for two checkpoints sharing 3 of 4 pages, want 5", got)
	}
	if got := r.UniqueBytes(); got != 5*PageBytes {
		t.Errorf("UniqueBytes = %d, want %d", got, 5*PageBytes)
	}
	r.Release(f1)
	if got := r.UniquePages(); got != 4 {
		t.Errorf("UniquePages = %d after releasing f1, want 4 (f2 alone)", got)
	}
	r.Release(f2)
	if got := r.UniquePages(); got != 0 {
		t.Errorf("UniquePages = %d after releasing everything, want 0", got)
	}
}

// refImage is the naive deep-copy reference model the COW image is
// differential-tested against: a plain byte map whose snapshots copy
// everything.
type refImage struct{ data map[Addr]byte }

func newRefImage() *refImage { return &refImage{data: make(map[Addr]byte)} }

func (r *refImage) set(a Addr, v byte) { r.data[a] = v }

func (r *refImage) snapshot() *refImage {
	c := newRefImage()
	for a, v := range r.data {
		c.data[a] = v
	}
	return c
}

func (r *refImage) restore(s *refImage) { r.data = s.snapshot().data }

// Randomized write/snapshot/restore/clone interleavings must keep the
// COW image byte-identical to the deep-copy reference — live state and
// every captured checkpoint alike.
func TestRandomizedCOWDifferential(t *testing.T) {
	const (
		steps  = 2000
		pages  = 6 // small page set so snapshots and writes collide often
		checks = 64
	)
	rng := rand.New(rand.NewSource(42))
	randAddr := func() Addr {
		return Addr(rng.Intn(pages))*PageBytes + Addr(rng.Intn(3)) // few offsets: heavy collisions
	}
	im := NewImage()
	ref := newRefImage()
	var cps []*Image
	var refCps []*refImage
	addrs := make(map[Addr]struct{})

	verify := func(step int, im *Image, ref *refImage, label string) {
		t.Helper()
		for a := range addrs {
			if got, want := im.ByteAt(a), ref.data[a]; got != want {
				t.Fatalf("step %d: %s diverged from reference at %#x: got %d, want %d", step, label, a, got, want)
			}
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // write
			a, v := randAddr(), byte(rng.Intn(256))
			im.SetByte(a, v)
			ref.set(a, v)
			addrs[a] = struct{}{}
		case op < 8: // snapshot
			cps = append(cps, im.Freeze())
			refCps = append(refCps, ref.snapshot())
		case op == 8 && len(cps) > 0: // restore a random checkpoint
			i := rng.Intn(len(cps))
			im.CopyFrom(cps[i])
			ref.restore(refCps[i])
		default: // fork a clone and write through it; the live image must not see it
			c := im.Clone()
			c.SetByte(randAddr(), byte(rng.Intn(256)))
		}
		if step%checks == 0 {
			verify(step, im, ref, "live image")
		}
	}
	verify(steps, im, ref, "live image")
	for i := range cps {
		verify(steps, cps[i], refCps[i], fmt.Sprintf("checkpoint %d", i))
	}
}

// A machine snapshot is never written by a restore, so many
// machines may restore from the same state concurrently (the fuzz
// executor's cached checkpoints do exactly this). Run under -race.
func TestConcurrentRestoreSharedMachineState(t *testing.T) {
	const (
		goroutines = 8
		restores   = 50
		pages      = 8
	)
	src := NewMachine()
	touchPages(src.Persistent, 0, pages, 20)
	s := src.Snapshot()

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := NewMachine()
			for r := 0; r < restores; r++ {
				// Diverge from the checkpoint, then restore back onto it.
				touchPages(m.Persistent, 0, pages, byte(g)+byte(r))
				m.Persistent.SetByte(Addr(g+pages)*PageBytes, byte(r))
				m.Restore(s)
			}
			if !m.Persistent.Equal(s) {
				errs <- fmt.Sprintf("goroutine %d: restored machine does not match the shared state", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// The shared state itself must be untouched by all that traffic.
	if !src.Persistent.Equal(s) {
		t.Error("concurrent restores corrupted the shared snapshot")
	}
}
