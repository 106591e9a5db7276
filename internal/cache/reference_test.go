package cache

import (
	"fmt"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// This file is the reference cache hierarchy: the map-and-closure L1,
// L2, directory and write-back buffer that the pooled implementation
// replaced, kept as it was apart from renaming. Its directory is a map
// of pointer entries, its MSHRs are per-line maps of waiter closures,
// and every miss, flush and write-back builds closures. Simple to read
// and slow; TestHierarchyMatchesReference holds the production
// hierarchy to its behaviour.

// refDirEntry is the directory's view of one cache line.
type refDirEntry struct {
	// owner is the core holding the line in M/E state, or noOwner.
	owner int
	// sharers is a bitmask of cores holding the line in S state.
	sharers uint64
}

// refHierarchy is the shared cache system: L2, directory, and one L1 per
// core.
type refHierarchy struct {
	eng     *sim.Engine
	cfg     config.Config
	machine *mem.Machine
	pm      memPort

	dir map[mem.Addr]*refDirEntry
	l2  *refL2
	l1s []*refL1

	// gates[i] is core i's persist gate (nil when the design has none).
	gates []PersistGate

	stats HierStats
}

// newRefHierarchy builds the reference cache system for cfg.Cores
// cores over the memory port pm.
func newRefHierarchy(eng *sim.Engine, cfg config.Config, machine *mem.Machine, pm memPort) *refHierarchy {
	h := &refHierarchy{
		eng:     eng,
		cfg:     cfg,
		machine: machine,
		pm:      pm,
		dir:     make(map[mem.Addr]*refDirEntry),
		l2:      newRefL2(cfg),
		gates:   make([]PersistGate, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1s = append(h.l1s, newRefL1(h, i))
	}
	return h
}

// L1 returns core i's L1 cache.
func (h *refHierarchy) L1(core int) *refL1 { return h.l1s[core] }

// SetGate registers core's persist gate; pass nil for designs without
// write-back/snoop persist gating.
func (h *refHierarchy) SetGate(core int, g PersistGate) { h.gates[core] = g }

// Stats returns a copy of the hierarchy counters.
func (h *refHierarchy) Stats() HierStats { return h.stats }

// Preload installs line clean into the shared L2, modelling state warmed
// by a setup phase that is not part of the measured run.
func (h *refHierarchy) Preload(line mem.Addr) {
	if mem.LineOffset(line) != 0 {
		panic("cache: Preload of unaligned address")
	}
	h.l2.install(line, false, h)
}

func (h *refHierarchy) entry(line mem.Addr) *refDirEntry {
	e := h.dir[line]
	if e == nil {
		e = &refDirEntry{owner: noOwner}
		h.dir[line] = e
	}
	return e
}

func (h *refHierarchy) after(d uint64, fn func()) { h.eng.Schedule(sim.Cycle(d), fn) }

// --- L1 ---

type refL1Line struct {
	line  mem.Addr
	dirty bool
	// lru is a monotonically increasing last-use stamp.
	lru uint64
}

// refL1 is one core's private data cache.
type refL1 struct {
	h    *refHierarchy
	core int
	sets [][]refL1Line
	tick uint64
	wb   *refWB
	// storeFills and loadFills coalesce outstanding misses per line
	// (MSHR semantics): the first requester drives the fill, subsequent
	// same-line requests piggyback on its completion.
	storeFills map[mem.Addr][]func()
	loadFills  map[mem.Addr][]func()
}

func newRefL1(h *refHierarchy, core int) *refL1 {
	l1 := &refL1{
		h:          h,
		core:       core,
		sets:       make([][]refL1Line, h.cfg.L1Sets),
		storeFills: make(map[mem.Addr][]func()),
		loadFills:  make(map[mem.Addr][]func()),
	}
	l1.wb = newRefWB(l1)
	return l1
}

func (l *refL1) setIndex(line mem.Addr) int {
	return int((uint64(line) >> mem.LineShift) % uint64(l.h.cfg.L1Sets))
}

func (l *refL1) lookup(line mem.Addr) *refL1Line {
	set := l.sets[l.setIndex(line)]
	for i := range set {
		if set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

func (l *refL1) touch(e *refL1Line) {
	l.tick++
	e.lru = l.tick
}

// install places line in the cache (evicting if needed) and returns its
// slot; if the line is already resident the existing slot is updated
// (dirty status merges). Dirty victims enter the write-back buffer.
func (l *refL1) install(line mem.Addr, dirty bool) *refL1Line {
	if e := l.lookup(line); e != nil {
		e.dirty = e.dirty || dirty
		l.touch(e)
		return e
	}
	idx := l.setIndex(line)
	set := l.sets[idx]
	if len(set) < l.h.cfg.L1Ways {
		l.sets[idx] = append(set, refL1Line{line: line, dirty: dirty})
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
	set[victim] = refL1Line{line: line, dirty: dirty}
	e := &set[victim]
	l.touch(e)
	return e
}

// evict removes e's line from this L1, sending dirty data through the
// write-back buffer and updating the directory.
func (l *refL1) evict(e *refL1Line) {
	de := l.h.entry(e.line)
	if de.owner == l.core {
		de.owner = noOwner
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
func (l *refL1) drop(line mem.Addr) {
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
func (l *refL1) Present(line mem.Addr) bool { return l.lookup(line) != nil }

// Dirty reports whether line is resident dirty in this L1.
func (l *refL1) Dirty(line mem.Addr) bool {
	e := l.lookup(line)
	return e != nil && e.dirty
}

func (l *refL1) String() string { return fmt.Sprintf("L1[core %d]", l.core) }

// Load brings line into this L1 with at least shared permission and
// invokes done when the data is available. Per the paper (Fig. 2g),
// read requests do NOT gate on a remote core's pending persists: loads
// never establish persist order.
func (l *refL1) Load(line mem.Addr, done func()) {
	h := l.h
	if e := l.lookup(line); e != nil {
		l.touch(e)
		h.stats.L1Hits++
		h.after(h.cfg.L1HitCycles, done)
		return
	}
	h.stats.L1Misses++
	// MSHR coalescing: piggyback on an outstanding fill for this line.
	if _, ok := l.loadFills[line]; ok {
		l.loadFills[line] = append(l.loadFills[line], done)
		return
	}
	if _, ok := l.storeFills[line]; ok {
		// An exclusive fill also satisfies the load.
		l.storeFills[line] = append(l.storeFills[line], done)
		return
	}
	l.loadFills[line] = nil
	userDone := done
	done = func() {
		waiters := l.loadFills[line]
		delete(l.loadFills, line)
		userDone()
		for _, w := range waiters {
			w()
		}
	}
	de := h.entry(line)
	if de.owner != noOwner && de.owner != l.core {
		// Downgrade the remote owner to shared; its dirty payload moves
		// to L2 (still volatile — persistence happens only at the PM
		// controller).
		remote := h.l1s[de.owner]
		if re := remote.lookup(line); re != nil && re.dirty {
			re.dirty = false
			h.l2.install(line, true, h)
		}
		de.sharers |= 1 << uint(de.owner)
		de.owner = noOwner
		de.sharers |= 1 << uint(l.core)
		l.install(line, false)
		h.stats.L2Hits++
		h.after(h.cfg.L2HitCycles, done)
		return
	}
	fill := func() {
		de.sharers |= 1 << uint(l.core)
		l.install(line, false)
		done()
	}
	if h.l2.present(line) {
		h.stats.L2Hits++
		h.after(h.cfg.L2HitCycles, fill)
		return
	}
	h.stats.L2Misses++
	h.pm.SubmitRead(line, func() {
		h.l2.install(line, false, h)
		fill()
	})
}

// Store obtains modified permission for line in this L1, marks it dirty,
// and invokes done when the store may update the cache. If the line is
// dirty in another core's L1 and that core's persist gate has pending
// work, the read-exclusive reply stalls until the recorded strand-buffer
// tails drain (strong persist atomicity, paper Fig. 2i-j).
func (l *refL1) Store(line mem.Addr, done func()) {
	h := l.h
	de := h.entry(line)
	if e := l.lookup(line); e != nil && de.owner == l.core {
		// Write hit with ownership.
		l.touch(e)
		e.dirty = true
		h.stats.L1Hits++
		h.after(h.cfg.L1HitCycles, done)
		return
	}
	h.stats.L1Misses++
	// MSHR coalescing: a store while an exclusive fill for the same
	// line is outstanding piggybacks on it (the fill installs the line
	// dirty with ownership, satisfying this store too).
	if _, ok := l.storeFills[line]; ok {
		l.storeFills[line] = append(l.storeFills[line], done)
		return
	}
	l.storeFills[line] = nil
	userDone := done
	done = func() {
		waiters := l.storeFills[line]
		delete(l.storeFills, line)
		userDone()
		for _, w := range waiters {
			w()
		}
	}
	finish := func() {
		// Invalidate all shared copies.
		for c := 0; c < h.cfg.Cores; c++ {
			if c != l.core && de.sharers&(1<<uint(c)) != 0 {
				h.l1s[c].drop(line)
			}
		}
		de.sharers = 0
		de.owner = l.core
		l.install(line, true)
		done()
	}
	if de.owner != noOwner && de.owner != l.core {
		// Read-exclusive request to a remote owner.
		remote := h.l1s[de.owner]
		re := remote.lookup(line)
		transfer := func() {
			h.stats.OwnershipTransfers++
			remote.drop(line)
			h.after(h.cfg.L2HitCycles, finish)
		}
		if re != nil && re.dirty {
			if g := h.gates[de.owner]; g != nil {
				tok := g.RecordTails()
				h.stats.SnoopGateWaits++
				g.CallWhenDrained(tok, transfer)
				return
			}
		}
		transfer()
		return
	}
	if l.lookup(line) != nil || de.sharers&^(1<<uint(l.core)) != 0 || h.l2.present(line) {
		// Upgrade from shared, or L2 fill.
		h.stats.Upgrades++
		h.after(h.cfg.L2HitCycles, finish)
		return
	}
	h.stats.L2Misses++
	h.pm.SubmitRead(line, func() {
		h.l2.install(line, false, h)
		finish()
	})
}

// Flush implements the CLWB datapath (paper Section IV, "Strand buffer
// unit operation"): look up the L1; if the line is dirty, snapshot it,
// retain a clean copy, and send the write to the PM controller; on an L1
// miss, probe the L2 (and, if a remote L1 holds it dirty, flush the
// remote copy); a clean/absent line acknowledges after the lookup. done
// fires when the flush completes (controller acceptance ack for dirty
// data).
func (l *refL1) Flush(line mem.Addr, done func()) {
	h := l.h
	h.stats.Flushes++
	if e := l.lookup(line); e != nil && e.dirty {
		h.stats.FlushL1Dirty++
		e.dirty = false
		if h.cfg.FlushInvalidates {
			de := h.entry(line)
			// CLFLUSHOPT semantics: the line leaves the cache entirely.
			l.drop(line)
			if de.owner == l.core {
				de.owner = noOwner
			}
			de.sharers &^= 1 << uint(l.core)
		}
		h.after(h.cfg.L1HitCycles, func() {
			var data [mem.LineSize]byte
			h.machine.Volatile.CopyLine(line, &data)
			h.pm.SubmitPMWrite(line, data, done)
		})
		return
	}
	// L1 clean or absent: the flush propagates downward.
	de := h.entry(line)
	if de.owner != noOwner && de.owner != l.core {
		remote := h.l1s[de.owner]
		if re := remote.lookup(line); re != nil && re.dirty {
			// Another core holds the latest data dirty; the flush is
			// serviced from there (coherent CLWB). The remote copy is
			// cleaned but retained.
			h.stats.FlushRemote++
			re.dirty = false
			h.after(h.cfg.L1HitCycles+h.cfg.L2HitCycles, func() {
				var data [mem.LineSize]byte
				h.machine.Volatile.CopyLine(line, &data)
				h.pm.SubmitPMWrite(line, data, done)
			})
			return
		}
	}
	if h.l2.dirty(line) {
		h.stats.FlushL2Dirty++
		h.l2.clean(line)
		h.after(h.cfg.L1HitCycles+h.cfg.L2HitCycles, func() {
			var data [mem.LineSize]byte
			h.machine.Volatile.CopyLine(line, &data)
			h.pm.SubmitPMWrite(line, data, done)
		})
		return
	}
	// The dirty data may be in flight in a write-back buffer (evicted
	// from an L1 but not yet installed in L2); the flush must still
	// persist it.
	for _, peer := range h.l1s {
		if peer.wb.contains(line) {
			h.stats.FlushWBBuffer++
			h.after(h.cfg.L1HitCycles+h.cfg.L2HitCycles, func() {
				var data [mem.LineSize]byte
				h.machine.Volatile.CopyLine(line, &data)
				h.pm.SubmitPMWrite(line, data, done)
			})
			return
		}
	}
	h.stats.FlushClean++
	h.after(h.cfg.L1HitCycles, done)
}

// refL2 is the shared last-level cache. Dirty PM lines evicted from L2
// persist at the controller; dirty DRAM lines are absorbed by DRAM.
type refL2 struct {
	sets [][]refL2Line
	ways int
	tick uint64
}

type refL2Line struct {
	line  mem.Addr
	dirty bool
	lru   uint64
}

func newRefL2(cfg config.Config) *refL2 {
	return &refL2{sets: make([][]refL2Line, cfg.L2Sets), ways: cfg.L2Ways}
}

func (c *refL2) setIndex(line mem.Addr) int {
	return int((uint64(line) >> mem.LineShift) % uint64(len(c.sets)))
}

func (c *refL2) find(line mem.Addr) *refL2Line {
	set := c.sets[c.setIndex(line)]
	for i := range set {
		if set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

func (c *refL2) present(line mem.Addr) bool { return c.find(line) != nil }

func (c *refL2) dirty(line mem.Addr) bool {
	e := c.find(line)
	return e != nil && e.dirty
}

func (c *refL2) clean(line mem.Addr) {
	if e := c.find(line); e != nil {
		e.dirty = false
	}
}

// install places line in the L2 (possibly already present, in which case
// dirty status is merged). Evicted dirty lines persist (PM) or drain to
// DRAM via the hierarchy h.
func (c *refL2) install(line mem.Addr, dirty bool, h *refHierarchy) {
	c.tick++
	if e := c.find(line); e != nil {
		e.dirty = e.dirty || dirty
		e.lru = c.tick
		return
	}
	idx := c.setIndex(line)
	set := c.sets[idx]
	if len(set) < c.ways {
		c.sets[idx] = append(set, refL2Line{line: line, dirty: dirty, lru: c.tick})
		return
	}
	victim := 0
	for i := range set {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	v := set[victim]
	if v.dirty {
		h.stats.L2Writebacks++
		if mem.IsPM(v.line) {
			var data [mem.LineSize]byte
			h.machine.Volatile.CopyLine(v.line, &data)
			h.pm.SubmitPMWrite(v.line, data, nil)
		} else {
			h.pm.SubmitDRAMWrite(v.line)
		}
	}
	set[victim] = refL2Line{line: line, dirty: dirty, lru: c.tick}
}

// refWB manages in-progress write-backs from an L1. Per the
// paper ("Managing cache writebacks"), StrandWeaver extends each entry
// with one field per strand buffer recording that buffer's tail index at
// write-back initiation; the write-back drains to L2 only after the
// strand buffers retire past the recorded indexes. This guarantees older
// CLWBs complete before a younger store's line can leave the L1 toward
// PM, with no possibility of circular dependency (CLWBs never wait on
// write-backs).
type refWB struct {
	l1       *refL1
	inFlight int
	// lines tracks in-flight write-backs by line so the CLWB datapath
	// can find dirty data that has left the L1 but not yet reached L2.
	lines map[mem.Addr]int
}

func newRefWB(l1 *refL1) *refWB {
	return &refWB{l1: l1, lines: make(map[mem.Addr]int)}
}

// contains reports whether a write-back of line is in flight.
func (wb *refWB) contains(line mem.Addr) bool { return wb.lines[line] > 0 }

// push enters a dirty line into the buffer and arranges its gated drain.
func (wb *refWB) push(line mem.Addr) {
	h := wb.l1.h
	wb.inFlight++
	wb.lines[line]++
	drain := func() {
		wb.inFlight--
		if wb.lines[line]--; wb.lines[line] == 0 {
			delete(wb.lines, line)
		}
		// The line's dirty payload lands in the (volatile) L2; it
		// persists only if later evicted from L2 or flushed.
		h.l2.install(line, true, h)
	}
	if g := h.gates[wb.l1.core]; g != nil {
		tok := g.RecordTails()
		h.stats.WritebackGateWaits++
		g.CallWhenDrained(tok, drain)
		return
	}
	drain()
}

// InFlightWritebacks reports write-backs waiting on persist gates.
func (l *refL1) InFlightWritebacks() int { return l.wb.inFlight }
