package undolog

import (
	"fmt"

	"strandweaver/internal/cpu"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
)

// Log is one thread's undo log: a circular buffer of 64-byte entries in
// PM with a persistent head and a volatile tail (kept in DRAM so that
// entries created on different strands are not ordered through tail
// updates — strong persist atomicity would otherwise serialise them,
// see Section V "Log structure").
type Log struct {
	tid      int
	desc     mem.Addr
	bufBase  mem.Addr
	entries  uint64
	tailDRAM mem.Addr

	// head and tail are host mirrors of the monotone entry indexes; the
	// persistent head lives in the descriptor, the volatile tail in
	// DRAM.
	head, tail uint64

	// ticket is the shared global creation counter stamped into entries
	// (the happens-before metadata recovery sorts by).
	ticket *uint64

	stats LogStats
}

// LogStats counts logging activity.
type LogStats struct {
	StoreEntries uint64
	SyncEntries  uint64
	Commits      uint64
	Invalidated  uint64
}

// Logs bundles the per-thread logs of one system.
type Logs struct {
	PerThread []*Log
	ticket    uint64
}

// Init lays out and initialises per-thread logs host-side (descriptors
// and zeroed buffers are written to both the volatile and persistent
// images, modelling a pre-existing formatted log area). entries must be
// a power of two at least 8.
func Init(sys *machine.System, threads int, entries uint64) *Logs {
	if entries < 8 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("undolog: entries must be a power of two >= 8, got %d", entries))
	}
	ls := &Logs{}
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		bufBase := mem.PMBase + BufOffset + mem.Addr(uint64(t)*entries*mem.LineSize)
		for _, img := range []*mem.Image{sys.Mem.Volatile, sys.Mem.Persistent} {
			img.Write64(desc+descMagic, Magic)
			img.Write64(desc+descBufBase, uint64(bufBase))
			img.Write64(desc+descEntries, entries)
			img.Write64(desc+descHead, 0)
		}
		// A freshly formatted log area is warm (the formatter just wrote
		// it); preload it so first-lap appends do not pay cold PM reads.
		sys.Hier.Preload(mem.LineAddr(desc))
		for e := uint64(0); e < entries; e++ {
			sys.Hier.Preload(bufBase + mem.Addr(e*mem.LineSize))
		}
		l := &Log{
			tid:      t,
			desc:     desc,
			bufBase:  bufBase,
			entries:  entries,
			tailDRAM: mem.DRAMBase + mem.Addr(0x1000+t*mem.LineSize),
			ticket:   &ls.ticket,
		}
		ls.PerThread = append(ls.PerThread, l)
	}
	return ls
}

// Stats returns a copy of the log's counters.
func (l *Log) Stats() LogStats { return l.stats }

// Tid returns the owning thread id.
func (l *Log) Tid() int { return l.tid }

// Tail returns the monotone tail index.
func (l *Log) Tail() uint64 { return l.tail }

// FreeEntries reports remaining slots before the buffer is full.
func (l *Log) FreeEntries() uint64 { return l.entries - (l.tail - l.head) }

// entryAddr returns the PM address of the slot for monotone index idx.
func (l *Log) entryAddr(idx uint64) mem.Addr {
	return l.bufBase + mem.Addr((idx%l.entries)*mem.LineSize)
}

// nextTicket stamps a new global creation ticket.
func (l *Log) nextTicket() uint64 {
	*l.ticket++
	return *l.ticket
}

// appendEntry writes one entry's fields (simulated stores) at the tail
// slot, advances the volatile tail, and returns the entry address and
// its ticket. The caller is responsible for flushing and ordering.
func (l *Log) appendEntry(c *cpu.Core, typ EntryType, addr mem.Addr, old, size, meta uint64) (mem.Addr, uint64) {
	if l.FreeEntries() == 0 {
		panic(fmt.Sprintf("undolog: thread %d log overflow (entries=%d); the language runtime must commit before exhaustion", l.tid, l.entries))
	}
	e := l.entryAddr(l.tail)
	tk := l.nextTicket()
	c.Store64(e+entType, uint64(typ))
	c.Store64(e+entAddr, uint64(addr))
	c.Store64(e+entOld, old)
	c.Store64(e+entSize, size)
	c.Store64(e+entSeq, tk)
	c.Store64(e+entMeta, meta)
	c.Store64(e+entCheck, EntryChecksum(typ, addr, old, size, tk, meta))
	c.Store64(e+entFlags, FlagValid)
	l.tail++
	// Volatile tail update (DRAM store: no persist ordering effects).
	c.Store64(l.tailDRAM, l.tail)
	return e, tk
}

// AppendStore creates a store undo entry recording addr's prior value
// and flushes it. Ordering around it is the caller's job (LoggedStore
// does the full Figure 5 sequence).
func (l *Log) AppendStore(c *cpu.Core, addr mem.Addr, old uint64) mem.Addr {
	e, _ := l.appendEntry(c, EntryStore, addr, old, 8, 0)
	c.CLWB(e)
	l.stats.StoreEntries++
	return e
}

// AppendSync creates a synchronization entry (acquire/release/tx
// begin/end) with the given metadata and flushes it.
func (l *Log) AppendSync(c *cpu.Core, typ EntryType, meta uint64) mem.Addr {
	e, _ := l.appendEntry(c, typ, 0, 0, 0, meta)
	c.CLWB(e)
	l.stats.SyncEntries++
	return e
}

// AppendSyncUnflushed creates a synchronization entry without flushing
// it. Used for a TX_END that is immediately covered by a commit: the
// commit-marker store rewrites and flushes the same line, so a separate
// flush would only lengthen the commit's durability wait.
func (l *Log) AppendSyncUnflushed(c *cpu.Core, typ EntryType, meta uint64) mem.Addr {
	e, _ := l.appendEntry(c, typ, 0, 0, 0, meta)
	l.stats.SyncEntries++
	return e
}

// LoggedStore performs one failure-atomic mutation: undo-log the old
// value, order the log persist before the update (per design), then
// store and flush the new value. This is exactly Figure 5's
// log_store().
func (l *Log) LoggedStore(c *cpu.Core, addr mem.Addr, val uint64) {
	BeginPair(c)
	old := c.Load64(addr)
	l.AppendStore(c, addr, old)
	LogToUpdate(c)
	c.Store64(addr, val)
	c.CLWB(addr)
}

// CommitUpTo performs the Figure 6 commit sequence for all entries with
// monotone index < upto. The correctness argument is marker-based:
//
//  1. Region updates must be durable before the covering marker can
//     persist (Durable): if the marker is in PM, rollback is forbidden
//     and the updates must be there.
//  2. The marker's persist must be ordered before every invalidation's
//     persist (CommitOrder): otherwise a crash could find a partially
//     invalidated batch with no marker, and recovery would roll back
//     only the surviving subset — breaking atomicity.
//  3. Invalidations need not be ordered with the head advance: recovery
//     completes interrupted commits from the newest persisted marker,
//     not from the head, and slot reuse is at least one full buffer lap
//     (hence at least one later commit's Durable) away.
//
// No-op when the range is empty.
func (l *Log) CommitUpTo(c *cpu.Core, upto uint64) {
	if upto <= l.head {
		return
	}
	if upto > l.tail {
		panic("undolog: commit beyond tail")
	}
	Durable(c)
	// Mark commit intent on the terminating entry (Figure 6a step 2).
	// The whole commit chain rides ONE strand: marker, then a persist
	// barrier, then the invalidations (mutually concurrent behind the
	// barrier), then the head. The ordering is delegated to the strand
	// buffer — the core does not stall again.
	BeginPair(c)
	last := l.entryAddr(upto - 1)
	c.Store64(last+entFlags, FlagValid|FlagCommitMarker)
	c.CLWB(last)
	LogToUpdate(c)
	// Invalidate the range (Figure 6a step 3); entries have their own
	// lines and no barriers between them, so they drain concurrently.
	for idx := l.head; idx < upto; idx++ {
		e := l.entryAddr(idx)
		c.Store64(e+entFlags, 0)
		c.CLWB(e)
		l.stats.Invalidated++
	}
	// Advance and flush the persistent head (Figure 6a step 4).
	c.Store64(l.desc+descHead, upto)
	c.CLWB(l.desc)
	l.head = upto
	l.stats.Commits++
}
