package mem

// Snapshot is a crash-cut checkpoint of the functional memory: it
// freezes the persistent image (see Image.Freeze), the one image a
// power cut preserves, into a page-table copy, no page bytes. The
// volatile image is not captured — it is the state a crash destroys,
// and no post-crash query reads it. The frozen view shares page
// storage with the machine it was captured from, but that storage is
// immutable from the moment of capture — the machine's next write to
// a captured page copies it first (a COW fault) — so the view is
// semantically as self-contained as a deep copy, at O(pages) pointer
// cost and zero bytes copied, and stays valid however the machine
// mutates afterwards. It carries none of the live image's
// recovery-tooling state (armed write budget, dirty tracking), which
// is out of scope for machine checkpoints (docs/SNAPSHOT.md).
func (m *Machine) Snapshot() *Image { return m.Persistent.Freeze() }

// Restore rewinds the machine's persistent image to the checkpoint by
// re-sharing its frozen pages. The *Image pointer held by the machine
// (and cached by components wired to it) stays valid — the page table
// is edited in place — and restore work is proportional to the pages
// that diverged since capture (plus an O(pages) pointer scan), with
// zero page bytes copied. The checkpoint is read, never written, so
// one snapshot can be restored any number of times, including
// concurrently into different machines (the race-mode tests pin this).
// The volatile image is left as it is (see Snapshot).
func (m *Machine) Restore(s *Image) { m.Persistent.restoreFrom(s) }

// restoreFrom rewinds im's contents to src's by sharing src's pages:
// a page of im still holding src's storage (pointer equality — the
// pageRef capture invariant makes this proof of
// unmodified-since-capture) is skipped, everything else is re-pointed
// at src's storage and dropped-or-deleted to match src's page set. No
// page bytes are copied; im's next write to a restored page COW-faults.
// When src is a live image (CopyFrom between scratch images), sharing
// demotes src's ownership so its own next write faults too; frozen
// sources are never written at all, which is what makes concurrent
// restores of one checkpoint race-free. The write budget is left
// untouched (see Machine.Snapshot).
func (im *Image) restoreFrom(src *Image) {
	if im.frozen {
		panic("mem: restore into frozen image: captured views are immutable (docs/SNAPSHOT.md)")
	}
	im.dropHot()
	if !src.frozen {
		src.dropHot()
	}
	for base := range im.pages {
		if _, ok := src.pages[base]; !ok {
			delete(im.pages, base)
		}
	}
	for base, sp := range src.pages {
		if pr, ok := im.pages[base]; ok && pr.data == sp.data {
			continue // unmodified since capture: nothing to do
		}
		im.pages[base] = pageRef{data: sp.data}
		if sp.owned {
			src.pages[base] = pageRef{data: sp.data}
		}
		im.stats.RestoreDiverged++
	}
}
