// Package redolog implements the redo-logging design the paper sketches
// as future work (Section VII, "Hardware logging"): under strand
// persistency, each failure-atomic transaction runs on its own strand;
// the transaction's redo entries (new values) persist concurrently, one
// persist barrier orders them before the commit record, and the
// in-place updates follow behind the commit record on the same strand.
// A group-commit operation merges strands (JoinStrand) and reclaims the
// logs of prior transactions.
//
// Contrast with undo logging (package undolog): redo needs only one
// intra-transaction ordering point (entries -> commit record) instead of
// one per mutation, and in-place updates leave the critical path — at
// the price of write-set buffering for read-your-writes and a replay
// (rather than rollback) recovery.
package redolog

import (
	"fmt"

	"strandweaver/internal/cpu"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/undolog"
)

// Entry layout (64-byte line), mirroring the undo log's field offsets
// where meanings coincide.
const (
	entType  = 0
	entAddr  = 8
	entNew   = 16
	entTxID  = 24
	entSeq   = 32
	entFlags = 40
	entCheck = 48 // checksum over the payload words (torn-write defence)
)

// entryChecksum digests an entry's payload words, excluding the flags
// word (rewritten independently by group-commit invalidation and 8-byte
// atomic on its own). As with undolog.EntryChecksum, media atomicity is
// 8 bytes: a line interrupted mid-persist can land as any subset of its
// words, and recovery discards checksum-mismatched entries. Discarding
// is sound: in-place updates are ordered behind the commit record on
// the same strand, and the commit record behind all redo entries, so a
// torn entry implies neither the commit record nor any in-place update
// of its transaction reached PM. Commit records checksum with addr and
// val zero (those fields are never written for them).
func entryChecksum(typ uint64, addr mem.Addr, val, txid, seq uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range [...]uint64{typ, uint64(addr), val, txid, seq} {
		h ^= v
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return h
}

// Entry types.
const (
	typeInvalid = 0
	typeStore   = 1
	typeCommit  = 2
)

// Entry flags.
const flagValid = 1

// Redo log PM layout: a strip above the undo-log buffers (both engines
// can coexist for comparison runs).
const (
	descOffset = undolog.BufOffset - 1<<18
	bufOffset  = undolog.HeapOffset - 1<<22
)

// Descriptor fields.
const (
	descMagic   = 0
	descBufBase = 8
	descEntries = 16
	descHead    = 24
)

// Magic marks an initialised redo-log descriptor.
const Magic = 0x5354_5244_5244_4F21 // "STRDRDO!"

// DescAddr returns thread tid's redo-log descriptor address.
func DescAddr(tid int) mem.Addr {
	return mem.PMBase + descOffset + mem.Addr(tid)*mem.LineSize
}

// Log is one thread's redo log.
type Log struct {
	desc    mem.Addr
	bufBase mem.Addr
	entries uint64

	head, tail uint64
	ticket     *uint64
	nextTxID   uint64

	// pendingTxs counts committed-but-unreclaimed transactions (group
	// commit reclaims them).
	pendingTxs []uint64 // end-tail of each committed tx
	stats      Stats
}

// Stats counts redo-log activity.
type Stats struct {
	Entries      uint64
	Commits      uint64
	GroupCommits uint64
	Applied      uint64
}

// Logs bundles per-thread redo logs.
type Logs struct {
	PerThread []*Log
	ticket    uint64
}

// Init lays out per-thread redo logs host-side.
func Init(sys *machine.System, threads int, entries uint64) *Logs {
	if entries < 8 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("redolog: entries must be a power of two >= 8, got %d", entries))
	}
	ls := &Logs{}
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		bufBase := mem.PMBase + bufOffset + mem.Addr(uint64(t)*entries*mem.LineSize)
		for _, img := range []*mem.Image{sys.Mem.Volatile, sys.Mem.Persistent} {
			img.Write64(desc+descMagic, Magic)
			img.Write64(desc+descBufBase, uint64(bufBase))
			img.Write64(desc+descEntries, entries)
			img.Write64(desc+descHead, 0)
		}
		sys.Hier.Preload(mem.LineAddr(desc))
		for e := uint64(0); e < entries; e++ {
			sys.Hier.Preload(bufBase + mem.Addr(e*mem.LineSize))
		}
		ls.PerThread = append(ls.PerThread, &Log{
			desc: desc, bufBase: bufBase, entries: entries, ticket: &ls.ticket,
		})
	}
	return ls
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats { return l.stats }

func (l *Log) entryAddr(idx uint64) mem.Addr {
	return l.bufBase + mem.Addr((idx%l.entries)*mem.LineSize)
}

// FreeEntries reports remaining slots.
func (l *Log) FreeEntries() uint64 { return l.entries - (l.tail - l.head) }

type write struct {
	addr mem.Addr
	val  uint64
}

// Tx is one redo transaction. The write set buffers mutations for
// read-your-writes until commit applies them in place.
type Tx struct {
	l      *Log
	c      *cpu.Core
	id     uint64
	writes []write
	done   bool
}

// Begin opens a transaction on its own strand.
func (l *Log) Begin(c *cpu.Core) *Tx {
	l.nextTxID++
	undolog.BeginPair(c) // fresh strand per transaction
	return &Tx{l: l, c: c, id: l.nextTxID}
}

// Store buffers a mutation and persists its redo entry. Entries of one
// transaction carry no barriers between them — they drain concurrently.
func (tx *Tx) Store(addr mem.Addr, v uint64) {
	if tx.done {
		panic("redolog: Store after Commit")
	}
	if !mem.IsPM(addr) {
		panic("redolog: Store to a non-PM address")
	}
	l := tx.l
	if l.FreeEntries() == 0 {
		panic("redolog: log overflow; group-commit before exhaustion")
	}
	e := l.entryAddr(l.tail)
	l.tail++
	*l.ticket++
	c := tx.c
	c.Store64(e+entType, typeStore)
	c.Store64(e+entAddr, uint64(addr))
	c.Store64(e+entNew, v)
	c.Store64(e+entTxID, tx.id)
	c.Store64(e+entSeq, *l.ticket)
	c.Store64(e+entCheck, entryChecksum(typeStore, addr, v, tx.id, *l.ticket))
	c.Store64(e+entFlags, flagValid)
	c.CLWB(e)
	l.stats.Entries++
	tx.writes = append(tx.writes, write{addr: addr, val: v})
}

// Load reads through the write set (read-your-writes), falling back to
// memory.
func (tx *Tx) Load(addr mem.Addr) uint64 {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].addr == addr {
			return tx.writes[i].val
		}
	}
	return tx.c.Load64(addr)
}

// Commit persists the commit record after all redo entries (one persist
// barrier), then performs the in-place updates behind the record on the
// same strand. The in-place persists leave the critical path; the core
// does not wait for them.
func (tx *Tx) Commit() {
	if tx.done {
		panic("redolog: double Commit")
	}
	tx.done = true
	l, c := tx.l, tx.c
	if l.FreeEntries() == 0 {
		panic("redolog: log overflow at commit")
	}
	// The single ordering point: entries before the commit record.
	undolog.LogToUpdate(c)
	e := l.entryAddr(l.tail)
	l.tail++
	*l.ticket++
	c.Store64(e+entType, typeCommit)
	c.Store64(e+entTxID, tx.id)
	c.Store64(e+entSeq, *l.ticket)
	c.Store64(e+entCheck, entryChecksum(typeCommit, 0, 0, tx.id, *l.ticket))
	c.Store64(e+entFlags, flagValid)
	c.CLWB(e)
	// In-place updates ordered behind the commit record.
	undolog.LogToUpdate(c)
	for _, w := range tx.writes {
		c.Store64(w.addr, w.val)
		c.CLWB(w.addr)
		l.stats.Applied++
	}
	l.pendingTxs = append(l.pendingTxs, l.tail)
	l.stats.Commits++
}

// GroupCommit merges prior strands (all in-place updates durable) and
// reclaims the logs of every committed transaction — the paper's "group
// commit operation can merge strands and commit prior transactions".
func (l *Log) GroupCommit(c *cpu.Core) {
	if len(l.pendingTxs) == 0 {
		return
	}
	undolog.Durable(c)
	upto := l.pendingTxs[len(l.pendingTxs)-1]
	undolog.BeginPair(c)
	for idx := l.head; idx < upto; idx++ {
		e := l.entryAddr(idx)
		c.Store64(e+entFlags, 0)
		c.CLWB(e)
	}
	c.Store64(l.desc+descHead, upto)
	c.CLWB(l.desc)
	l.head = upto
	l.pendingTxs = nil
	l.stats.GroupCommits++
}
