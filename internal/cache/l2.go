package cache

import (
	"strandweaver/internal/config"
	"strandweaver/internal/mem"
)

// l2ChunkSets is the number of set heads in one lazily allocated chunk,
// and l2BlockLines the number of line records in one slab block. Most
// L2 sets of a run hold no line or one, so neither per-set storage nor
// the line records are allocated before a set is first installed into;
// fixed-size blocks keep a large preload from re-copying a growing
// slab.
const (
	l2ChunkSets  = 64
	l2BlockLines = 1024
)

// l2cache is the shared last-level cache. Dirty PM lines evicted from L2
// persist at the controller; dirty DRAM lines are absorbed by DRAM.
//
// Each set is a singly linked list of line records threaded by slab
// index. Lines are never removed from L2, only replaced in place, so
// records are never freed. Every install bumps tick, so lru stamps are
// unique and the victim — the minimum stamp — does not depend on the
// order of a set's list.
type l2cache struct {
	sets, ways int
	tick       uint64
	// heads[s/l2ChunkSets][s%l2ChunkSets] is the first record of set s
	// (0 = empty set); a nil chunk holds only empty sets.
	heads []*[l2ChunkSets]int32
	// blocks is the record slab; record i lives at
	// blocks[i/l2BlockLines][i%l2BlockLines]. used counts the records
	// handed out, and record 0 is the list terminator, never used.
	blocks []*[l2BlockLines]l2Line
	used   int32
}

type l2Line struct {
	line  mem.Addr
	lru   uint64
	next  int32
	dirty bool
}

func newL2(cfg config.Config) l2cache {
	return l2cache{
		sets:  cfg.L2Sets,
		ways:  cfg.L2Ways,
		heads: make([]*[l2ChunkSets]int32, (cfg.L2Sets+l2ChunkSets-1)/l2ChunkSets),
		used:  1,
	}
}

func (c *l2cache) setIndex(line mem.Addr) int {
	return int((uint64(line) >> mem.LineShift) % uint64(c.sets))
}

func (c *l2cache) rec(i int32) *l2Line {
	return &c.blocks[i/l2BlockLines][i%l2BlockLines]
}

func (c *l2cache) find(line mem.Addr) *l2Line {
	s := c.setIndex(line)
	chunk := c.heads[s/l2ChunkSets]
	if chunk == nil {
		return nil
	}
	for i := chunk[s%l2ChunkSets]; i != 0; {
		e := c.rec(i)
		if e.line == line {
			return e
		}
		i = e.next
	}
	return nil
}

func (c *l2cache) present(line mem.Addr) bool { return c.find(line) != nil }

func (c *l2cache) dirty(line mem.Addr) bool {
	e := c.find(line)
	return e != nil && e.dirty
}

func (c *l2cache) clean(line mem.Addr) {
	if e := c.find(line); e != nil {
		e.dirty = false
	}
}

// install places line in the L2 (possibly already present, in which case
// dirty status is merged). Evicted dirty lines persist (PM) or drain to
// DRAM via the hierarchy h.
func (c *l2cache) install(line mem.Addr, dirty bool, h *Hierarchy) {
	c.tick++
	s := c.setIndex(line)
	chunk := c.heads[s/l2ChunkSets]
	if chunk == nil {
		chunk = new([l2ChunkSets]int32)
		c.heads[s/l2ChunkSets] = chunk
	}
	head := &chunk[s%l2ChunkSets]
	var victim *l2Line
	n := 0
	for i := *head; i != 0; {
		e := c.rec(i)
		if e.line == line {
			e.dirty = e.dirty || dirty
			e.lru = c.tick
			return
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
		n++
		i = e.next
	}
	if n < c.ways {
		i := c.alloc()
		*c.rec(i) = l2Line{line: line, lru: c.tick, next: *head, dirty: dirty}
		*head = i
		return
	}
	if victim.dirty {
		h.stats.L2Writebacks++
		if mem.IsPM(victim.line) {
			var data [mem.LineSize]byte
			h.machine.Volatile.CopyLine(victim.line, &data)
			h.pm.SubmitPMWrite(victim.line, data, nil)
		} else {
			h.pm.SubmitDRAMWrite(victim.line)
		}
	}
	victim.line, victim.dirty, victim.lru = line, dirty, c.tick
}

// alloc hands out the next slab record, adding a block when the last
// one is full.
func (c *l2cache) alloc() int32 {
	i := c.used
	if int(i/l2BlockLines) == len(c.blocks) {
		c.blocks = append(c.blocks, new([l2BlockLines]l2Line))
	}
	c.used++
	return i
}
