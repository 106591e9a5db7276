package mem

// Stats counts an image's copy-on-write checkpoint events. Like
// sim.Stats and pmem.Stats these are deterministic functions of the
// operations applied to the image, surfaced through sweep.CellMetrics
// as observability — they are never part of captured state, content
// equality or any digest (DETERMINISM.md rule 5), and captured views
// (Freeze, Snapshot) always carry zero Stats.
type Stats struct {
	// PagesFrozen counts owned pages whose storage became shared (and
	// therefore immutable in place) by a Freeze or Clone capture. Only
	// ownership transitions count: re-capturing an unchanged page is
	// free and uncounted, so across one image's successive captures
	// this is the sum of inter-capture deltas, not captures x footprint.
	PagesFrozen uint64 `json:"pages_frozen,omitempty"`
	// COWFaults counts shared pages copied because of a write — the
	// deferred per-page cost of capture.
	COWFaults uint64 `json:"cow_faults,omitempty"`
	// RestoreDiverged counts pages a restore had to re-point because
	// they no longer shared the checkpoint's storage (restoreFrom,
	// ResetPagesFrom). Restores do O(this) re-pointing plus an O(pages)
	// pointer scan, and zero byte copies.
	RestoreDiverged uint64 `json:"restore_diverged,omitempty"`
	// CheckpointBytes is a gauge, not a counter: the peak unique page
	// bytes retained by a checkpoint cache (see PageRefs), set by the
	// cache that owns the checkpoints rather than by images.
	CheckpointBytes uint64 `json:"checkpoint_bytes,omitempty"`
}

// Add folds o into s: counters sum, the CheckpointBytes gauge takes
// the maximum (the merge rule pmem.Stats.Add set the precedent for).
func (s *Stats) Add(o Stats) {
	s.PagesFrozen += o.PagesFrozen
	s.COWFaults += o.COWFaults
	s.RestoreDiverged += o.RestoreDiverged
	if o.CheckpointBytes > s.CheckpointBytes {
		s.CheckpointBytes = o.CheckpointBytes
	}
}

// CowStats returns the image's copy-on-write counters.
func (im *Image) CowStats() Stats { return im.stats }

// CowStats sums the machine's two images' copy-on-write counters.
func (m *Machine) CowStats() Stats {
	s := m.Volatile.CowStats()
	s.Add(m.Persistent.CowStats())
	return s
}

// PageRefs accounts the unique page storage retained by a set of COW
// images, by pointer identity: structurally shared pages (one capture
// run's successive checkpoints, a restore that re-shares a baseline)
// count once no matter how many images hold them. Checkpoint caches
// use it to budget retained bytes honestly — entry counts overstate
// shared footprints by the sharing factor. Not safe for concurrent
// use; callers hold their own lock.
type PageRefs struct {
	refs map[*[pageSize]byte]int
}

// NewPageRefs returns an empty accounting set.
func NewPageRefs() *PageRefs {
	return &PageRefs{refs: make(map[*[pageSize]byte]int)}
}

// Retain adds every page of each image to the set.
func (r *PageRefs) Retain(ims ...*Image) {
	for _, im := range ims {
		if im == nil {
			continue
		}
		for _, pr := range im.pages {
			r.refs[pr.data]++
		}
	}
}

// Release removes every page of each image from the set. Images must
// be released exactly as they were retained (frozen images cannot
// change; releasing a live image that COW-diverged since Retain would
// unbalance the counts).
func (r *PageRefs) Release(ims ...*Image) {
	for _, im := range ims {
		if im == nil {
			continue
		}
		for _, pr := range im.pages {
			n := r.refs[pr.data] - 1
			if n <= 0 {
				delete(r.refs, pr.data)
			} else {
				r.refs[pr.data] = n
			}
		}
	}
}

// UniquePages reports the number of distinct page storages retained.
func (r *PageRefs) UniquePages() int { return len(r.refs) }

// UniqueBytes reports the retained unique page bytes.
func (r *PageRefs) UniqueBytes() uint64 { return uint64(len(r.refs)) * PageBytes }
