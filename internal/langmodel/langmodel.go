// Package langmodel implements the three language-level persistency
// models the paper layers over the logging design of Section V:
//
//   - TXN: failure-atomic transactions — logs commit (durably) at the
//     end of every region, before locks release.
//   - SFR: synchronization-free regions — acquire/release entries are
//     logged and execution continues without stalling; commits are
//     batched and deferred, ordered by the logged happens-before
//     relation (Gogte et al., PLDI'18).
//   - ATLAS: outermost critical sections — like SFR but with the
//     heavier-weight lock happens-before metadata ATLAS maintains
//     (Chakrabarti et al., OOPSLA'14).
//
// Deferred commits respect cross-thread dependencies: a region's log may
// be destroyed only after every region it happens-after has committed,
// which keeps the set of uncommitted regions closed under happens-before
// and makes the per-ticket reverse rollback in package undolog restore a
// consistent cut.
package langmodel

import (
	"fmt"
	"sort"

	"strandweaver/internal/cpu"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/undolog"
)

// Model selects the language-level persistency model.
type Model uint8

const (
	// TXN provides failure-atomic transactions.
	TXN Model = iota
	// ATLAS provides failure-atomic outermost critical sections.
	ATLAS
	// SFR provides failure-atomic synchronization-free regions.
	SFR
)

// All lists the models in the paper's evaluation order.
var All = []Model{TXN, ATLAS, SFR}

var modelNames = [...]string{TXN: "txn", ATLAS: "atlas", SFR: "sfr"}

// String returns the model's short name.
func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// ParseModel returns the model named s.
func ParseModel(s string) (Model, error) {
	for m, n := range modelNames {
		if n == s {
			return Model(m), nil
		}
	}
	return 0, fmt.Errorf("langmodel: unknown model %q", s)
}

// Options tunes the runtime.
type Options struct {
	// LogEntries is the per-thread log capacity (power of two).
	LogEntries uint64
	// CommitBatch is the number of regions between deferred-commit
	// attempts (SFR/ATLAS).
	CommitBatch int
	// RegionReserve is the log headroom required before a region may
	// start; it must exceed the largest region's entry count.
	RegionReserve uint64
}

// DefaultOptions returns production defaults.
func DefaultOptions() Options {
	return Options{LogEntries: 4096, CommitBatch: 8, RegionReserve: 256}
}

type dep struct {
	tid    int
	region uint64
}

type pendingRegion struct {
	id      uint64
	endTail uint64
	deps    []dep
}

type threadState struct {
	tid           int
	log           *undolog.Log
	pending       []pendingRegion
	nextRegion    uint64
	committedUpTo uint64
	sinceCommit   int

	stats ThreadStats
}

// ThreadStats counts per-thread runtime activity.
type ThreadStats struct {
	Regions         uint64
	LoggedStores    uint64
	Commits         uint64
	CommitDeferrals uint64
	LogFullWaits    uint64
}

type lockInfo struct {
	// deps is the dependency set a region acquiring this lock inherits:
	// the last writing region that released the lock, or — if the last
	// releaser was read-only — the dependencies that region itself
	// carried (reads propagate happens-before without creating
	// commit obligations of their own).
	deps []dep
	// metaAddr is the PM line where ATLAS keeps the lock's
	// happens-before metadata.
	metaAddr mem.Addr
}

// Runtime binds a language-level model to a simulated system.
type Runtime struct {
	model Model
	opts  Options
	logs  *undolog.Logs
	ts    []*threadState
	locks map[mem.Addr]*lockInfo
	// metaNext allocates ATLAS lock metadata lines.
	metaNext mem.Addr
}

// New builds a runtime for threads hardware threads on sys.
func New(sys *machine.System, model Model, threads int, opts Options) *Runtime {
	if opts.LogEntries == 0 {
		opts = DefaultOptions()
	}
	rt := &Runtime{
		model:    model,
		opts:     opts,
		logs:     undolog.Init(sys, threads, opts.LogEntries),
		locks:    make(map[mem.Addr]*lockInfo),
		metaNext: mem.PMBase + undolog.HeapOffset - 1<<16, // metadata strip below the heap
	}
	for t := 0; t < threads; t++ {
		rt.ts = append(rt.ts, &threadState{tid: t, log: rt.logs.PerThread[t]})
	}
	return rt
}

// Model returns the runtime's language model.
func (rt *Runtime) Model() Model { return rt.model }

// Logs exposes the underlying undo logs (for recovery tooling).
func (rt *Runtime) Logs() *undolog.Logs { return rt.logs }

// ThreadStats returns thread tid's counters.
func (rt *Runtime) ThreadStats(tid int) ThreadStats { return rt.ts[tid].stats }

func (rt *Runtime) lockInfo(addr mem.Addr) *lockInfo {
	li := rt.locks[addr]
	if li == nil {
		li = &lockInfo{metaAddr: rt.metaNext}
		rt.metaNext += mem.LineSize
		rt.locks[addr] = li
	}
	return li
}

// Tx is the mutation interface inside a failure-atomic region.
type Tx struct {
	rt    *Runtime
	c     *cpu.Core
	ts    *threadState
	locks []mem.Addr
	// opened is set once the region has emitted its begin logging; it
	// stays false for read-only regions, which log nothing (lazy begin,
	// as real transactional implementations do for read-only
	// transactions).
	opened bool
}

// Core returns the executing core (for loads, compute, raw access).
func (tx *Tx) Core() *cpu.Core { return tx.c }

// Load reads 8 bytes; loads need no logging.
func (tx *Tx) Load(addr mem.Addr) uint64 { return tx.c.Load64(addr) }

// Store performs a failure-atomic 8-byte mutation: undo-logged, ordered
// and flushed per the active hardware design (Figure 5). The first
// store of a region emits the region-begin logging.
func (tx *Tx) Store(addr mem.Addr, v uint64) {
	if !mem.IsPM(addr) {
		panic("langmodel: Tx.Store to a non-PM address")
	}
	if !tx.opened {
		tx.opened = true
		tx.rt.logBegin(tx.c, tx.ts, tx.locks)
	}
	tx.ts.stats.LoggedStores++
	tx.ts.log.LoggedStore(tx.c, addr, v)
}

// Region executes body as a failure-atomic region on core c (thread id =
// core id), acquiring the given volatile locks in sorted order.
func (rt *Runtime) Region(c *cpu.Core, locks []mem.Addr, body func(tx *Tx)) {
	ts := rt.ts[c.ID()]
	// Reserve log space BEFORE taking locks: waiting for a dependee
	// thread's commit while holding a lock it needs would deadlock.
	for ts.log.FreeEntries() < rt.opts.RegionReserve {
		before := ts.log.FreeEntries()
		rt.commitEligible(c, ts, true)
		if ts.log.FreeEntries() == before {
			ts.stats.LogFullWaits++
			c.Compute(300)
		}
	}
	sorted := append([]mem.Addr(nil), locks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, l := range sorted {
		c.Lock(l)
	}
	ts.nextRegion++
	id := ts.nextRegion
	// Record cross-thread happens-before: this region depends on the
	// writing regions reachable through each lock's last release.
	var deps []dep
	for _, l := range sorted {
		for _, d := range rt.lockInfo(l).deps {
			if d.tid != ts.tid {
				deps = appendDep(deps, d)
			}
		}
	}
	tx := &Tx{rt: rt, c: c, ts: ts, locks: sorted}
	body(tx)
	if tx.opened {
		rt.logEnd(c, ts, sorted)
	}
	undolog.RegionEnd(c)
	ts.stats.Regions++

	if tx.opened {
		switch rt.model {
		case TXN:
			// Transactions commit durably before isolation releases.
			ts.log.CommitUpTo(c, ts.log.Tail())
			ts.committedUpTo = id
			ts.stats.Commits++
		default:
			ts.pending = append(ts.pending, pendingRegion{id: id, endTail: ts.log.Tail(), deps: deps})
			ts.sinceCommit++
			if ts.sinceCommit >= rt.opts.CommitBatch {
				rt.commitEligible(c, ts, false)
			}
		}
	}
	// Publish release metadata, then release the locks. A writing
	// region becomes the dependency of future acquirers; a read-only
	// region propagates the dependencies it inherited.
	for _, l := range sorted {
		li := rt.lockInfo(l)
		if tx.opened {
			li.deps = []dep{{tid: ts.tid, region: id}}
		} else {
			merged := append([]dep(nil), li.deps...)
			for _, d := range deps {
				merged = appendDep(merged, d)
			}
			li.deps = merged
		}
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		c.Unlock(sorted[i])
	}
}

// appendDep merges d into deps keeping at most one (the newest) entry
// per thread.
func appendDep(deps []dep, d dep) []dep {
	for i := range deps {
		if deps[i].tid == d.tid {
			if d.region > deps[i].region {
				deps[i].region = d.region
			}
			return deps
		}
	}
	return append(deps, d)
}

// logBegin emits the model-specific region-begin logging.
func (rt *Runtime) logBegin(c *cpu.Core, ts *threadState, locks []mem.Addr) {
	undolog.BeginPair(c)
	switch rt.model {
	case TXN:
		ts.log.AppendSync(c, undolog.EntryTxBegin, 0)
	case SFR:
		meta := uint64(0)
		if len(locks) > 0 {
			meta = uint64(locks[0])
		}
		ts.log.AppendSync(c, undolog.EntryAcquire, meta)
	case ATLAS:
		// ATLAS reads each lock's happens-before metadata, maintains
		// its (volatile) happens-before graph, and logs an acquire
		// entry per lock — the heavier-weight mechanism the paper
		// contrasts with SFR.
		for _, l := range locks {
			li := rt.lockInfo(l)
			c.Load64(li.metaAddr)
			c.Compute(atlasGraphWorkCycles)
			ts.log.AppendSync(c, undolog.EntryAcquire, uint64(l))
		}
		if len(locks) == 0 {
			ts.log.AppendSync(c, undolog.EntryAcquire, 0)
		}
	}
}

// atlasGraphWorkCycles models ATLAS's volatile happens-before graph
// maintenance per synchronization operation (Chakrabarti et al. report
// this bookkeeping as ATLAS's dominant runtime overhead).
const atlasGraphWorkCycles = 180

// logEnd emits the model-specific region-end logging.
func (rt *Runtime) logEnd(c *cpu.Core, ts *threadState, locks []mem.Addr) {
	undolog.BeginPair(c)
	switch rt.model {
	case TXN:
		// The immediate commit's marker rewrites and flushes this entry.
		ts.log.AppendSyncUnflushed(c, undolog.EntryTxEnd, 0)
	case SFR:
		meta := uint64(0)
		if len(locks) > 0 {
			meta = uint64(locks[0])
		}
		ts.log.AppendSync(c, undolog.EntryRelease, meta)
	case ATLAS:
		// Release entries plus graph maintenance and a persistent
		// metadata update per lock. The metadata persist rides the
		// release entry's strand unordered — recovery reads it only
		// for committed regions, so no extra barrier is required.
		for _, l := range locks {
			li := rt.lockInfo(l)
			ts.log.AppendSync(c, undolog.EntryRelease, uint64(l))
			c.Compute(atlasGraphWorkCycles)
			c.Store64(li.metaAddr, uint64(ts.tid)<<32|ts.nextRegion&0xFFFF_FFFF)
			c.CLWB(li.metaAddr)
		}
		if len(locks) == 0 {
			ts.log.AppendSync(c, undolog.EntryRelease, 0)
		}
	}
}

// commitEligible commits the longest prefix of pending regions whose
// dependencies have all committed. force only affects accounting (log
// pressure vs batch cadence).
func (rt *Runtime) commitEligible(c *cpu.Core, ts *threadState, force bool) {
	eligible := 0
	for _, pr := range ts.pending {
		ok := true
		for _, d := range pr.deps {
			if rt.ts[d.tid].committedUpTo < d.region {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		eligible++
	}
	if eligible == 0 {
		if len(ts.pending) > 0 {
			ts.stats.CommitDeferrals++
		}
		return
	}
	last := ts.pending[eligible-1]
	ts.log.CommitUpTo(c, last.endTail)
	ts.committedUpTo = last.id
	ts.pending = ts.pending[eligible:]
	ts.sinceCommit = len(ts.pending)
	ts.stats.Commits++
}

// Finish commits all remaining regions on thread c.ID (call at worker
// teardown). It spins until cross-thread dependencies commit, which is
// guaranteed to terminate because happens-before is acyclic.
func (rt *Runtime) Finish(c *cpu.Core) {
	ts := rt.ts[c.ID()]
	for len(ts.pending) > 0 {
		before := len(ts.pending)
		rt.commitEligible(c, ts, true)
		if len(ts.pending) == before {
			c.Compute(300)
		}
	}
	undolog.Durable(c)
	c.DrainAll()
}
