// Package mem implements the functional (value-carrying) memory images of
// the simulated machine: the volatile image, which reflects the latest
// globally visible value of every location, and the persistent image,
// which reflects only the bytes that have reached the ADR persistence
// domain. A simulated crash discards the volatile image; recovery runs
// against the persistent image.
//
// Images are sparse, page-grained, and copy-on-write. Freeze and Clone
// capture an image by copying the page *table* only — every page's
// storage is shared between the source and the capture, and both sides
// give up the right to write it in place. A later mutation of a shared
// page copies it first (a "COW fault"), so checkpoint cost scales with
// the pages a run subsequently dirties, never with the image's
// footprint. docs/SNAPSHOT.md states the capture contract this
// implements.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// LineSize is the cache-line (and persist) granularity in bytes.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// PersistAtomicBytes is the media's atomic write unit. x86 guarantees
// only 8-byte atomicity for stores within a line, so a line-sized write
// that is interrupted by power failure may land as an arbitrary subset
// of its 8-byte words.
const PersistAtomicBytes = 8

// LineWords is the number of atomic persist units per cache line.
const LineWords = LineSize / PersistAtomicBytes

// Addr is a simulated physical address.
type Addr uint64

// LineAddr returns the address of the cache line containing a.
func LineAddr(a Addr) Addr { return a &^ (LineSize - 1) }

// LineOffset returns a's offset within its cache line.
func LineOffset(a Addr) uint64 { return uint64(a) & (LineSize - 1) }

// SameLine reports whether a and b fall on the same cache line.
func SameLine(a, b Addr) bool { return LineAddr(a) == LineAddr(b) }

const pageSize = 1 << 12 // 4 KiB sparse pages

// PageBytes is the sparse page granularity images capture and share at
// (exported for capacity accounting; see PageRefs).
const PageBytes = pageSize

// fingerprintFrame is the granularity Fingerprint hashes at. It is part
// of the digest's definition, so it stays fixed whatever pageSize is.
const fingerprintFrame = 1 << 16

// pageRef is one page-table entry: the page's storage plus whether this
// image owns it exclusively. An owned page may be written in place; an
// unowned (shared) page is immutable through this entry and must be
// copied before the first write (the COW fault). The invariant that
// makes pointer comparison meaningful everywhere else: ownership is
// only ever granted to freshly allocated storage, and every sharing
// operation (Freeze, Clone, restoreFrom) clears it on both sides — so
// two entries holding the same data pointer hold byte-identical,
// unmodified-since-capture contents.
type pageRef struct {
	data  *[pageSize]byte
	owned bool
}

// hotSlots sizes the direct-mapped page-lookup cache (see Image.hot).
// Power of two; 64 slots of 4 KiB pages span 256 KiB at 1.5 KiB per
// image, and the page-table slow path stays a small share of grid CPU
// (docs/SNAPSHOT.md, "Copy-on-write capture").
const hotSlots = 64

// hotEntry is one slot of the lookup cache: a page-table resolution
// (base, storage, ownership) that page() may reuse without touching
// the map. valid && data == nil caches a negative resolution — the
// page is known absent, so reads of untouched regions (lock spins on
// never-written words, unpersisted lines) skip the map too. Negative
// entries stay correct because the only way a page appears in a live
// image is page(create), which overwrites the slot, or a restore,
// which drops the whole cache.
type hotEntry struct {
	base  Addr
	data  *[pageSize]byte
	owned bool
	valid bool
}

// Image is a sparse byte-addressable memory image.
type Image struct {
	pages map[Addr]pageRef

	// hot is a direct-mapped page-table lookup cache: slot
	// (base/pageSize)%hotSlots holds the last resolution of that page
	// through page(), including negative resolutions (see hotEntry).
	// A torture run's working set — per-thread data pages, per-thread
	// log pages, the shared region — is a few dozen pages accessed
	// round-robin, so the cache turns almost every map lookup into an
	// array index. Direct mapping keys a base to exactly one slot, so
	// a COW fault re-pointing a page-table entry simply overwrites its
	// slot — the cache can never hold a stale duplicate. Never
	// populated on frozen images (reads of a frozen view must stay
	// write-free so concurrent restores and reads are race-free) and
	// dropped wholesale by every operation that re-points or demotes
	// page-table entries outside page() (Freeze, Clone, restoreFrom,
	// ResetPagesFrom).
	hot [hotSlots]hotEntry

	// frozen marks an immutable captured view (see Freeze): every
	// mutating call panics. Frozen images are safe for concurrent reads
	// and concurrent restores.
	frozen bool

	// budget, when armed, is decremented once per mutating call; a call
	// that finds it exhausted panics with PowerCut, modelling a power
	// failure in the middle of (recovery) software mutating the image.
	budget      int
	budgetArmed bool
	// dirty, when non-nil, accumulates the page base of every mutated
	// page (see TrackDirty).
	dirty map[Addr]struct{}
	// stats counts the image's COW events (see Stats). Observability
	// only — never part of captured state or content equality.
	stats Stats
}

// PowerCut is the panic value raised by a mutating call on an image
// whose write budget is exhausted. It models power failing while
// software (typically recovery) is mutating PM: the mutation sequence
// stops at an arbitrary 8-byte-atomic boundary.
type PowerCut struct{}

func (PowerCut) String() string {
	return "mem: write budget exhausted (simulated power cut)"
}

// ArmWriteBudget allows n further mutating calls on the image; the
// n+1th panics with PowerCut. Each public mutating call (SetByte,
// Write, Write64, ...) charges one unit regardless of length, matching
// the 8-byte-atomic mutations recovery code performs.
func (im *Image) ArmWriteBudget(n int) {
	im.budget = n
	im.budgetArmed = true
}

// DisarmWriteBudget removes the budget; mutations are unlimited again.
func (im *Image) DisarmWriteBudget() { im.budgetArmed = false }

// charge accounts one mutating call against the budget.
func (im *Image) charge() {
	if im.budgetArmed {
		if im.budget == 0 {
			panic(PowerCut{})
		}
		im.budget--
	}
}

// NewImage returns an empty image; all bytes read as zero.
func NewImage() *Image {
	return &Image{pages: make(map[Addr]pageRef)}
}

// page resolves the page containing a. With create=false it returns the
// shared storage (nil when the page is absent) for reading only. With
// create=true it returns storage this image may write in place,
// allocating an absent page and COW-copying a shared one; every
// mutating call resolves its pages through this hook, so it is the
// single point where dirty tracking, the frozen guard and COW faults
// all happen.
func (im *Image) page(a Addr, create bool) (*[pageSize]byte, uint64) {
	base := a &^ (pageSize - 1)
	off := uint64(a) & (pageSize - 1)
	slot := &im.hot[(base/pageSize)%hotSlots]
	if slot.valid && slot.base == base {
		if !create {
			return slot.data, off
		}
		if slot.owned {
			if im.dirty != nil {
				im.dirty[base] = struct{}{}
			}
			return slot.data, off
		}
	}
	pr, ok := im.pages[base]
	if !create {
		if !im.frozen {
			*slot = hotEntry{base: base, data: pr.data, owned: pr.owned, valid: true}
		}
		return pr.data, off
	}
	if im.frozen {
		panic(fmt.Sprintf("mem: write to frozen image (page %#x): captured views are immutable (docs/SNAPSHOT.md)", base))
	}
	if im.dirty != nil {
		im.dirty[base] = struct{}{}
	}
	if !ok {
		pr = pageRef{data: new([pageSize]byte), owned: true}
		im.pages[base] = pr
	} else if !pr.owned {
		// COW fault: the page is shared with a captured view; copy it
		// before the first write so the capture stays immutable.
		np := new([pageSize]byte)
		*np = *pr.data
		pr = pageRef{data: np, owned: true}
		im.pages[base] = pr
		im.stats.COWFaults++
	}
	*slot = hotEntry{base: base, data: pr.data, owned: true, valid: true}
	return pr.data, off
}

// dropHot empties the hot-page cache. Every operation that re-points
// or demotes page-table entries outside page() must call it on the
// images it wrote, or the cache could serve stale storage (a write
// landing in a page a checkpoint now shares).
func (im *Image) dropHot() {
	im.hot = [hotSlots]hotEntry{}
}

// TrackDirty starts (or resets) dirty-page tracking: until
// StopDirtyTracking, the base address of every mutated page is
// recorded. Loops that repeatedly perturb an image from a baseline
// (crash-during-recovery budget sweeps) use the set to reset and
// compare only the pages a pass actually touched.
func (im *Image) TrackDirty() { im.dirty = make(map[Addr]struct{}, 16) }

// DirtyPages returns a copy of the pages tracked so far — a stable
// view that later mutations do not grow. Callers that want the final
// set should use StopDirtyTracking's return value instead and avoid
// the copy.
func (im *Image) DirtyPages() map[Addr]struct{} {
	if im.dirty == nil {
		return nil
	}
	out := make(map[Addr]struct{}, len(im.dirty))
	for base := range im.dirty {
		out[base] = struct{}{}
	}
	return out
}

// StopDirtyTracking ends tracking and returns the final tracked set
// (nil when tracking was not active). The returned map is the
// accumulator itself — stable from here on, since only active tracking
// grows it.
func (im *Image) StopDirtyTracking() map[Addr]struct{} {
	d := im.dirty
	im.dirty = nil
	return d
}

// equalPage compares one page's contents across two images, with
// Equal's convention that an all-zero page equals an absent one.
// Shared storage (equal data pointers) proves equality without a byte
// compare — the capture invariant on pageRef guarantees neither side
// has modified a shared page.
func (im *Image) equalPage(base Addr, other *Image) bool {
	p, q := im.pages[base].data, other.pages[base].data
	if p == q {
		return true // shared storage, or both absent
	}
	if p == nil {
		return zeroPage(q)
	}
	if q == nil {
		return zeroPage(p)
	}
	return *p == *q
}

// EqualOn reports whether im and other hold identical contents on
// every page base in the given sets. When the sets jointly cover all
// pages on which the two images can differ (e.g. both were derived
// from a common baseline and each set tracks one side's writes), this
// decides full Equal at a fraction of the cost.
func (im *Image) EqualOn(other *Image, sets ...map[Addr]struct{}) bool {
	for _, set := range sets {
		for base := range set {
			if !im.equalPage(base, other) {
				return false
			}
		}
	}
	return true
}

// ResetPagesFrom restores the given pages of im to src's contents:
// pages src holds are re-shared with src (pointer work, no byte
// copies — pages already shared with src are skipped outright), pages
// it lacks are dropped. With the set produced by dirty tracking, this
// undoes a tracked pass without touching the rest of the image.
// Tracking and the write budget are unaffected. Like restoreFrom,
// sharing demotes src's ownership of the re-shared pages, so a later
// write on either side COW-faults.
func (im *Image) ResetPagesFrom(src *Image, bases map[Addr]struct{}) {
	if im.frozen {
		panic("mem: ResetPagesFrom on frozen image: captured views are immutable (docs/SNAPSHOT.md)")
	}
	im.dropHot()
	if !src.frozen {
		src.dropHot()
	}
	for base := range bases {
		sp, ok := src.pages[base]
		if !ok {
			delete(im.pages, base)
			continue
		}
		if pr, ok := im.pages[base]; ok && pr.data == sp.data {
			continue // still sharing src's storage: unmodified
		}
		im.pages[base] = pageRef{data: sp.data}
		if sp.owned {
			src.pages[base] = pageRef{data: sp.data}
		}
		im.stats.RestoreDiverged++
	}
}

// ByteAt returns the byte at a.
func (im *Image) ByteAt(a Addr) byte {
	p, off := im.page(a, false)
	if p == nil {
		return 0
	}
	return p[off]
}

// SetByte sets the byte at a.
func (im *Image) SetByte(a Addr, v byte) {
	im.charge()
	im.setByte(a, v)
}

func (im *Image) setByte(a Addr, v byte) {
	p, off := im.page(a, true)
	p[off] = v
}

// Read copies len(dst) bytes starting at a into dst. The page is
// resolved once per page crossed, not once per byte — this is the
// recovery and verification hot path.
func (im *Image) Read(a Addr, dst []byte) {
	for len(dst) > 0 {
		p, off := im.page(a, false)
		n := int(pageSize - off)
		if n > len(dst) {
			n = len(dst)
		}
		if p == nil {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], p[off:])
		}
		dst = dst[n:]
		a += Addr(n)
	}
}

// Write copies src into the image starting at a, resolving each
// crossed page once.
func (im *Image) Write(a Addr, src []byte) {
	im.charge()
	for len(src) > 0 {
		p, off := im.page(a, true)
		n := copy(p[off:], src)
		src = src[n:]
		a += Addr(n)
	}
}

// Read64 returns the little-endian uint64 at a. a need not be aligned: a
// word that spans a page boundary (or wraps past the top of the address
// space) is assembled byte by byte on the slow path.
func (im *Image) Read64(a Addr) uint64 {
	// Inlinable fast path: a hot-cache hit (including a cached negative
	// resolution — the page is known absent, the value is zero) reads
	// without the page() call. See hotEntry.
	off := uint64(a) & (pageSize - 1)
	slot := &im.hot[(a/pageSize)%hotSlots]
	if off <= pageSize-8 && slot.valid && slot.base == a&^(pageSize-1) {
		if slot.data == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(slot.data[off:])
	}
	return im.read64Slow(a)
}

func (im *Image) read64Slow(a Addr) uint64 {
	if p, off := im.page(a, false); off <= pageSize-8 {
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var buf [8]byte
	im.Read(a, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// NextNonzero64 returns the first i in [from, n) whose little-endian
// uint64 at a+i*stride (address arithmetic modulo 2^64) is nonzero,
// together with that word; ok is false when there is none. It finds
// exactly what a Read64 per slot would, for any a, but resolves each
// page once in the page table and skips absent pages whole. Slots whose
// word straddles into the next page are read with Read64. It never
// mutates the image and is safe on frozen views. Recovery's log scans
// use it to find the slots whose flags word is set.
func (im *Image) NextNonzero64(a Addr, stride, from, n uint64) (i, v uint64, ok bool) {
	if stride == 0 {
		if from < n {
			if v := im.Read64(a); v != 0 {
				return from, v, true
			}
		}
		return 0, 0, false
	}
	for i = from; i < n; {
		addr := a + Addr(i*stride)
		off := uint64(addr) & (pageSize - 1)
		// Slots i .. i+starts-1 begin in this page; the first full of
		// them hold their whole word in it, the rest straddle.
		starts := min((pageSize-1-off)/stride+1, n-i)
		full := uint64(0)
		if off <= pageSize-8 {
			full = min((pageSize-8-off)/stride+1, starts)
		}
		if p := im.pages[addr&^(pageSize-1)].data; p != nil {
			for j, o := uint64(0), off; j < full; j, o = j+1, o+stride {
				if w := binary.LittleEndian.Uint64(p[o:]); w != 0 {
					return i + j, w, true
				}
			}
		}
		for j := full; j < starts; j++ {
			if w := im.Read64(addr + Addr(j*stride)); w != 0 {
				return i + j, w, true
			}
		}
		i += starts
	}
	return 0, 0, false
}

// Write64 stores v little-endian at a.
func (im *Image) Write64(a Addr, v uint64) {
	// Inlinable fast path: a hot-cache hit on an owned page writes in
	// place. Mirrors page(create)'s hit path: charge first (a budget
	// PowerCut must fire before any mutation), then dirty-mark.
	off := uint64(a) & (pageSize - 1)
	slot := &im.hot[(a/pageSize)%hotSlots]
	if off <= pageSize-8 && slot.valid && slot.owned && slot.base == a&^(pageSize-1) {
		im.charge()
		if im.dirty != nil {
			im.dirty[slot.base] = struct{}{}
		}
		binary.LittleEndian.PutUint64(slot.data[off:], v)
		return
	}
	im.write64Slow(a, v)
}

func (im *Image) write64Slow(a Addr, v uint64) {
	if off := uint64(a) & (pageSize - 1); off <= pageSize-8 {
		im.charge()
		p, _ := im.page(a, true)
		binary.LittleEndian.PutUint64(p[off:], v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	im.Write(a, buf[:])
}

// Read32 returns the little-endian uint32 at a.
func (im *Image) Read32(a Addr) uint32 {
	var buf [4]byte
	im.Read(a, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// Write32 stores v little-endian at a.
func (im *Image) Write32(a Addr, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	im.Write(a, buf[:])
}

// CopyLine copies the 64-byte line at line (which must be line-aligned)
// into dst.
func (im *Image) CopyLine(line Addr, dst *[LineSize]byte) {
	if LineOffset(line) != 0 {
		panic(fmt.Sprintf("mem: CopyLine of unaligned address %#x", line))
	}
	im.Read(line, dst[:])
}

// StoreLine installs the 64 bytes in src at the line-aligned address line.
func (im *Image) StoreLine(line Addr, src *[LineSize]byte) {
	if LineOffset(line) != 0 {
		panic(fmt.Sprintf("mem: StoreLine of unaligned address %#x", line))
	}
	im.Write(line, src[:])
}

// StoreLineMasked installs a subset of the 8-byte words of src at the
// line-aligned address line: word i (bytes [8i, 8i+8)) is written iff
// bit i of keep is set; the other words retain their prior image
// contents. This is the sub-line capture a torn persist leaves behind —
// a line write interrupted by power failure lands as an arbitrary
// subset of its 8-byte-atomic units.
func (im *Image) StoreLineMasked(line Addr, src *[LineSize]byte, keep uint8) {
	if LineOffset(line) != 0 {
		panic(fmt.Sprintf("mem: StoreLineMasked of unaligned address %#x", line))
	}
	for w := 0; w < LineWords; w++ {
		if keep&(1<<w) == 0 {
			continue
		}
		off := w * PersistAtomicBytes
		im.Write(line+Addr(off), src[off:off+PersistAtomicBytes])
	}
}

// CopyFrom replaces im's contents with src's by sharing src's pages
// (see restoreFrom): pages that still share src's storage are skipped
// by pointer comparison, everything else is re-pointed — no byte
// copies either way. Loops that repeatedly reset a scratch image to a
// baseline (budget sweeps, checkpoint restores) use this instead of
// Clone to keep the reset proportional to what diverged. Like restore,
// it leaves the write budget untouched.
func (im *Image) CopyFrom(src *Image) { im.restoreFrom(src) }

// Freeze captures the image as an immutable view sharing every page
// with im: O(pages) pointer work, zero page bytes copied. The frozen
// view panics on any mutation; im stays live and writable, with its
// next write to each captured page paying one COW fault. Freezing an
// already-frozen image returns it unchanged (it can never diverge).
// Frozen views carry none of the live image's recovery-tooling state
// (write budget, dirty tracking, stats) — capture contract of
// docs/SNAPSHOT.md.
func (im *Image) Freeze() *Image {
	if im.frozen {
		return im
	}
	im.dropHot()
	f := &Image{pages: make(map[Addr]pageRef, len(im.pages)), frozen: true}
	for base, pr := range im.pages {
		f.pages[base] = pageRef{data: pr.data}
		if pr.owned {
			im.pages[base] = pageRef{data: pr.data}
			im.stats.PagesFrozen++
		}
	}
	return f
}

// Clone returns a live, writable copy of the image. Like Freeze it
// copies the page table only — both images share every page's storage
// and the first write to a shared page on either side COW-faults.
// Contents are independent from the moment Clone returns.
func (im *Image) Clone() *Image {
	if !im.frozen {
		im.dropHot()
	}
	c := &Image{pages: make(map[Addr]pageRef, len(im.pages))}
	for base, pr := range im.pages {
		c.pages[base] = pageRef{data: pr.data}
		if pr.owned {
			im.pages[base] = pageRef{data: pr.data}
			im.stats.PagesFrozen++
		}
	}
	return c
}

// Frozen reports whether the image is an immutable captured view.
func (im *Image) Frozen() bool { return im.frozen }

// zeroPageArr is the all-zero page zeroPage compares against; the
// array comparison compiles to a bulk memory-equality check.
var zeroPageArr [pageSize]byte

// zeroPage reports whether p holds only zero bytes.
func zeroPage(p *[pageSize]byte) bool {
	return p == nil || *p == zeroPageArr
}

// Equal reports whether the two images hold identical contents. Pages
// that were touched but hold only zeros compare equal to absent pages,
// so Equal is content equality, not allocation-history equality.
// Pages sharing storage (a COW capture neither side has written)
// compare in O(1) by pointer.
func (im *Image) Equal(other *Image) bool {
	for base, p := range im.pages {
		q, ok := other.pages[base]
		if !ok {
			if !zeroPage(p.data) {
				return false
			}
			continue
		}
		if p.data == q.data {
			continue
		}
		if *p.data != *q.data {
			return false
		}
	}
	for base, q := range other.pages {
		if _, ok := im.pages[base]; !ok && !zeroPage(q.data) {
			return false
		}
	}
	return true
}

// Fingerprint returns a deterministic 64-bit digest of the image's
// contents: FNV-1a over 64 KiB frames in ascending address order,
// all-zero frames skipped, each frame mixing its base address and then
// its 65536 bytes. The frame is fixed by definition, not by pageSize, so
// the digest does not depend on how the image is paged. Two images are
// Equal iff their contents match; matching contents always produce
// matching fingerprints, so the fingerprint is a cheap identity for
// determinism regression checks.
func (im *Image) Fingerprint() uint64 {
	bases := make([]Addr, 0, len(im.pages))
	for base, p := range im.pages {
		if !zeroPage(p.data) {
			bases = append(bases, base)
		}
	}
	slices.Sort(bases)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for k := 0; k < len(bases); {
		frame := bases[k] &^ (fingerprintFrame - 1)
		mix(uint64(frame))
		// base-frame stays correct when the top frame's last page wraps
		// base to zero.
		for base := frame; base-frame < fingerprintFrame; base += pageSize {
			if k == len(bases) || bases[k] != base {
				h *= fnvPrimePowPage // an absent or all-zero page
				continue
			}
			k++
			p := im.pages[base].data
			// Word-at-a-time with a zero-run fast path: FNV-1a over a
			// zero byte is h = (h^0)*prime = h*prime, so eight
			// consecutive zero bytes contribute exactly one multiply by
			// prime64^8. Nonzero words mix byte-by-byte in address order
			// (the little-endian load puts p[i] in the low byte, which
			// mix consumes first), so the digest is bit-identical to the
			// plain per-byte loop — sparse pages just reach it 8x faster.
			for i := 0; i < pageSize; i += 8 {
				w := binary.LittleEndian.Uint64(p[i : i+8])
				if w == 0 {
					h *= fnvPrimePow8
					continue
				}
				mix(w)
			}
		}
	}
	return h
}

// fnvPrimePow returns prime64^n mod 2^64: the factor n zero bytes
// contribute to an FNV-1a hash (see Fingerprint's zero-run fast paths).
func fnvPrimePow(n int) uint64 {
	const prime64 = 1099511628211
	p := uint64(1)
	for i := 0; i < n; i++ {
		p *= prime64
	}
	return p
}

var (
	fnvPrimePow8    = fnvPrimePow(8)
	fnvPrimePowPage = fnvPrimePow(pageSize)
)
