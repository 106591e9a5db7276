// Package cache models the two-level write-back cache hierarchy of the
// simulated machine: per-core L1 data caches, a shared L2, a MESI-style
// directory, per-core write-back buffers, and the snoop-side persist
// gating that StrandWeaver adds for strong persist atomicity (paper
// Section IV, "Managing cache writebacks" and "Enabling inter-thread
// persist order").
//
// The hierarchy is a timing model layered over the functional memory
// images in package mem: line *values* always come from the volatile
// image at the moment a flush or write-back is submitted, which matches
// real hardware where the payload travels with the message.
//
// Host costs follow what a run touches. The directory is a paged table,
// the L2 allocates set heads and line records on first install, and
// outstanding misses, flushes and write-backs are pooled request records
// whose completion thunks are built once: in steady state no load,
// store, flush or write-back allocates.
package cache

import (
	"fmt"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// GateToken captures a snapshot of in-flight persist work: Tail is the
// number of operations the gate had accepted when the token was
// recorded (StrandWeaver's per-strand-buffer tail indexes, folded into
// one append count). It is a value, so recording one allocates nothing.
type GateToken struct{ Tail uint64 }

// PersistGate is implemented by per-core persist hardware (the strand
// buffer unit, or the HOPS persist buffer) so the cache can honour the
// paper's write-back and coherence ordering rules: a gated action waits
// until all persist work present at record time has drained.
type PersistGate interface {
	// RecordTails snapshots the hardware's current tail indexes.
	RecordTails() GateToken
	// CallWhenDrained invokes cb (possibly immediately) once every
	// operation captured by the token has completed and retired.
	CallWhenDrained(t GateToken, cb func())
}

// memPort is the memory below the caches: line fills, line writes and
// volatile write-backs. *pmem.Topology is the production port; tests
// wrap it to record the traffic.
type memPort interface {
	SubmitRead(line mem.Addr, done pmem.ReadDone)
	SubmitPMWrite(line mem.Addr, data [mem.LineSize]byte, ack pmem.WriteAck)
	SubmitDRAMWrite(line mem.Addr)
}

const noOwner = -1

// dirEntry is the directory's view of one cache line.
type dirEntry struct {
	// owner is the core holding the line in M/E state, or noOwner.
	owner int
	// ownerDirty reports whether the owner's copy is dirty.
	ownerDirty bool
	// sharers is a bitmask of cores holding the line in S state.
	sharers uint64
}

// Hierarchy is the shared cache system: L2, directory, and one L1 per
// core.
type Hierarchy struct {
	eng     *sim.Engine
	cfg     config.Config
	machine *mem.Machine
	pm      memPort

	dir directory
	l2  l2cache
	l1s []*L1

	// gates[i] is core i's persist gate (nil when the design has none).
	gates []PersistGate

	// freeWrites recycles line-write requests (see lineWrite).
	freeWrites sim.FreeList[*lineWrite]

	stats HierStats
}

// HierStats aggregates hierarchy-wide counters.
type HierStats struct {
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	Upgrades           uint64
	OwnershipTransfers uint64
	L1Writebacks       uint64
	L2Writebacks       uint64
	Flushes            uint64
	FlushL1Dirty       uint64
	FlushL2Dirty       uint64
	FlushClean         uint64
	FlushRemote        uint64
	FlushWBBuffer      uint64
	SnoopGateWaits     uint64
	WritebackGateWaits uint64
}

// NewHierarchy builds the cache system for cfg.Cores cores. All memory
// traffic below the caches — fills, flushes, write-backs — routes
// through the PM topology, which interleaves lines across its
// controllers.
func NewHierarchy(eng *sim.Engine, cfg config.Config, machine *mem.Machine, pm *pmem.Topology) *Hierarchy {
	return newHierarchy(eng, cfg, machine, pm)
}

func newHierarchy(eng *sim.Engine, cfg config.Config, machine *mem.Machine, pm memPort) *Hierarchy {
	h := &Hierarchy{
		eng:     eng,
		cfg:     cfg,
		machine: machine,
		pm:      pm,
		l2:      newL2(cfg),
		l1s:     make([]*L1, cfg.Cores),
		gates:   make([]PersistGate, cfg.Cores),
	}
	for i := range h.l1s {
		h.l1s[i] = newL1(h, i)
	}
	return h
}

// L1 returns core i's L1 cache.
func (h *Hierarchy) L1(core int) *L1 { return h.l1s[core] }

// SetGate registers core's persist gate; pass nil for designs without
// write-back/snoop persist gating.
func (h *Hierarchy) SetGate(core int, g PersistGate) { h.gates[core] = g }

// Stats returns a copy of the hierarchy counters.
func (h *Hierarchy) Stats() HierStats { return h.stats }

// Preload installs line clean into the shared L2, modelling state warmed
// by a setup phase that is not part of the measured run.
func (h *Hierarchy) Preload(line mem.Addr) {
	if mem.LineOffset(line) != 0 {
		panic("cache: Preload of unaligned address")
	}
	h.l2.install(line, false, h)
}

func (h *Hierarchy) after(d uint64, fn func()) { h.eng.Schedule(sim.Cycle(d), fn) }

// --- directory ---

// dirPageLines is the number of line entries in one directory page, and
// dirHotSlots the size of the direct-mapped page cache in front of the
// page table. This is mem.Image's page pattern: a sparse address maps
// to value state in a lazily allocated page, and the hot cache turns
// almost every page-table lookup into an array index.
const (
	dirPageLines = 256
	dirHotSlots  = 64
)

type dirPage [dirPageLines]dirEntry

// dirHot is one slot of the page cache; page == nil marks it empty.
type dirHot struct {
	num  uint64
	page *dirPage
}

// directory is the sparse line → dirEntry table. Pages are never freed,
// so an entry's address is stable for the hierarchy's lifetime and
// in-flight requests may hold it.
type directory struct {
	pages map[uint64]*dirPage
	hot   [dirHotSlots]dirHot
}

// entry returns line's directory entry, creating it (unowned, no
// sharers) on first reference.
func (d *directory) entry(line mem.Addr) *dirEntry {
	idx := uint64(line) >> mem.LineShift
	num := idx / dirPageLines
	slot := &d.hot[num%dirHotSlots]
	if slot.page == nil || slot.num != num {
		p := d.pages[num]
		if p == nil {
			p = new(dirPage)
			for i := range p {
				p[i].owner = noOwner
			}
			if d.pages == nil {
				d.pages = make(map[uint64]*dirPage)
			}
			d.pages[num] = p
		}
		*slot = dirHot{num: num, page: p}
	}
	return &slot.page[idx%dirPageLines]
}

// --- line writes ---

// lineWrite is one line write on its way to the PM controller (a dirty
// flush). It copies the payload from the volatile image when it fires,
// after the lookup latency, not when the flush is made: a store that
// completes in between travels with the flush. Records are pooled on
// the hierarchy with their fire thunk.
type lineWrite struct {
	h      *Hierarchy
	line   mem.Addr
	done   func()
	fireFn func()
}

// writeLineAfter submits line's volatile contents to the PM controller
// after d cycles; done is the controller's acceptance acknowledgement.
func (h *Hierarchy) writeLineAfter(d uint64, line mem.Addr, done func()) {
	w, ok := h.freeWrites.Get()
	if !ok {
		w = &lineWrite{h: h}
		w.fireFn = w.fire
	}
	w.line, w.done = line, done
	h.after(d, w.fireFn)
}

func (w *lineWrite) fire() {
	h, line, done := w.h, w.line, w.done
	w.done = nil
	h.freeWrites.Put(w)
	var data [mem.LineSize]byte
	h.machine.Volatile.CopyLine(line, &data)
	h.pm.SubmitPMWrite(line, data, done)
}

// --- L1 ---

type l1Line struct {
	line  mem.Addr
	dirty bool
	// lru is a monotonically increasing last-use stamp.
	lru uint64
}

// L1 is one core's private data cache.
type L1 struct {
	h    *Hierarchy
	core int
	// sets is nil until the first install: a core that never touches
	// memory costs no set headers.
	sets [][]l1Line
	tick uint64
	wb   writebackBuffer
	// fills are the outstanding misses (MSHR semantics): the first
	// requester of a line drives the fill, and later same-line requests
	// wait on its record. freeFills recycles completed records.
	fills     []*mshr
	freeFills sim.FreeList[*mshr]
}

func newL1(h *Hierarchy, core int) *L1 {
	l1 := &L1{h: h, core: core}
	l1.wb.l1 = l1
	return l1
}

func (l *L1) setIndex(line mem.Addr) int {
	return int((uint64(line) >> mem.LineShift) % uint64(l.h.cfg.L1Sets))
}

func (l *L1) lookup(line mem.Addr) *l1Line {
	if l.sets == nil {
		return nil
	}
	set := l.sets[l.setIndex(line)]
	for i := range set {
		if set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

func (l *L1) touch(e *l1Line) {
	l.tick++
	e.lru = l.tick
}

// install places line in the cache (evicting if needed) and returns its
// slot; if the line is already resident the existing slot is updated
// (dirty status merges). Dirty victims enter the write-back buffer.
func (l *L1) install(line mem.Addr, dirty bool) *l1Line {
	if e := l.lookup(line); e != nil {
		e.dirty = e.dirty || dirty
		l.touch(e)
		return e
	}
	if l.sets == nil {
		l.sets = make([][]l1Line, l.h.cfg.L1Sets)
	}
	idx := l.setIndex(line)
	set := l.sets[idx]
	if len(set) < l.h.cfg.L1Ways {
		l.sets[idx] = append(set, l1Line{line: line, dirty: dirty})
		e := &l.sets[idx][len(l.sets[idx])-1]
		l.touch(e)
		return e
	}
	// Evict LRU.
	victim := 0
	for i := range set {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	l.evict(&set[victim])
	set[victim] = l1Line{line: line, dirty: dirty}
	e := &set[victim]
	l.touch(e)
	return e
}

// evict removes e's line from this L1, sending dirty data through the
// write-back buffer and updating the directory.
func (l *L1) evict(e *l1Line) {
	de := l.h.dir.entry(e.line)
	if de.owner == l.core {
		de.owner = noOwner
		de.ownerDirty = false
	}
	de.sharers &^= 1 << uint(l.core)
	if e.dirty {
		l.h.stats.L1Writebacks++
		l.wb.push(e.line)
	} else if !l.h.l2.present(e.line) {
		// Keep a clean copy in L2 so a later reference is an L2 hit;
		// clean fills never persist.
		l.h.l2.install(e.line, false, l.h)
	}
}

// drop removes line from the L1 arrays without write-back (used on
// invalidation; the dirty payload conceptually travels with the
// coherence reply).
func (l *L1) drop(line mem.Addr) {
	if l.sets == nil {
		return
	}
	idx := l.setIndex(line)
	set := l.sets[idx]
	for i := range set {
		if set[i].line == line {
			set[i] = set[len(set)-1]
			l.sets[idx] = set[:len(set)-1]
			return
		}
	}
}

// Present reports whether line is resident in this L1 (any state).
func (l *L1) Present(line mem.Addr) bool { return l.lookup(line) != nil }

// Dirty reports whether line is resident dirty in this L1.
func (l *L1) Dirty(line mem.Addr) bool {
	e := l.lookup(line)
	return e != nil && e.dirty
}

func (l *L1) String() string { return fmt.Sprintf("L1[core %d]", l.core) }
