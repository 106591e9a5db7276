// Package strand implements the paper's core hardware contribution: the
// strand buffer unit and the persist queue (Section IV). The strand
// buffer unit sits beside the L1 and schedules CLWBs from different
// strands to PM concurrently while persist barriers order CLWBs within a
// strand. The persist queue sits beside the store queue and enforces the
// issue-side ordering rules of PersistBarrier, NewStrand and JoinStrand.
//
// A BufferUnit configured with a single buffer doubles as the HOPS
// persist buffer: ofence has exactly persist-barrier mechanics inside
// one buffer, and dfence is a full-drain wait, so both designs share one
// faithful implementation and the comparison is storage-fair.
package strand

import (
	"fmt"

	"strandweaver/internal/cache"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// entryKind discriminates strand-buffer and persist-queue entries.
type entryKind uint8

const (
	entryCLWB entryKind = iota
	entryPB
	entryNS
	entryJS
)

func (k entryKind) String() string {
	switch k {
	case entryCLWB:
		return "CLWB"
	case entryPB:
		return "PB"
	case entryNS:
		return "NS"
	case entryJS:
		return "JS"
	}
	return fmt.Sprintf("entryKind(%d)", uint8(k))
}

// sbEntry is one strand-buffer slot, with the HasIssued / Completed
// state machine from Figure 3. Figure 3's CanIssue is not stored:
// issueEligible derives it from the entry's position, as no persist
// barrier ahead of it in its buffer.
type sbEntry struct {
	kind       entryKind
	line       mem.Addr
	hasIssued  bool
	completed  bool
	onComplete func()
	// ready, when non-nil, must return true before the entry may issue
	// (used by the HOPS configuration to hold a flush until the elder
	// same-line store drains; StrandWeaver resolves this in the persist
	// queue instead).
	ready func() bool
	// stamp is the entry's position in the unit-wide append order; the
	// write-back and snoop gates compare it against a recorded tail.
	stamp uint64
	// buf is the owning strand buffer while the entry is live, so the
	// cached flush completion (flushDone) can retire without capturing
	// it per issue. It points into BufferUnit.buffers, which is never
	// reallocated.
	buf *strandBuffer
	// flushDone is the entry's cached flush-acknowledgement thunk, built
	// once at allocation and reused across recycles (an entry has at
	// most one flush outstanding, and it always completes before the
	// entry retires and recycles).
	flushDone func()
}

// strandBuffer manages persist order within one strand: CLWBs separated
// by a persist barrier complete in order; CLWBs not separated by one may
// issue concurrently. Entries retire from the front in order.
type strandBuffer = sim.FIFO[*sbEntry]

// BufferUnit is the strand buffer unit: an array of strand buffers plus
// the ongoing-buffer index that NewStrand rotates round-robin.
type BufferUnit struct {
	eng         *sim.Engine
	l1          *cache.L1
	buffers     []strandBuffer
	capacity    int
	ongoing     int
	subscribers []func()
	gateWaits   []gateWait
	// appended counts every entry ever appended, across buffers: the
	// next entry's stamp, and the tail a gate token records.
	appended uint64
	// free recycles retired entries so the steady-state CLWB path
	// allocates nothing.
	free sim.FreeList[*sbEntry]

	stats UnitStats
}

// alloc returns a recycled (or new) entry with its cached flush thunk
// intact and every other field zeroed.
func (u *BufferUnit) alloc() *sbEntry {
	if e, ok := u.free.Get(); ok {
		return e
	}
	e := &sbEntry{}
	e.flushDone = func() {
		u.stats.inFlight--
		e.completed = true
		u.tryRetire(e.buf)
	}
	return e
}

type gateWait struct {
	token cache.GateToken
	cb    func()
}

// UnitStats aggregates strand-buffer-unit activity.
type UnitStats struct {
	CLWBsAccepted   uint64
	CLWBsIssued     uint64
	PBsAccepted     uint64
	NewStrands      uint64
	MaxInFlight     int
	inFlight        int
	GateWaitsServed uint64
}

// NewBufferUnit builds a unit with buffers strand buffers of
// entriesPerBuffer entries each, flushing through l1.
func NewBufferUnit(eng *sim.Engine, l1 *cache.L1, buffers, entriesPerBuffer int) *BufferUnit {
	if buffers <= 0 || entriesPerBuffer <= 0 {
		panic("strand: buffer unit needs positive geometry")
	}
	return &BufferUnit{
		eng:      eng,
		l1:       l1,
		buffers:  make([]strandBuffer, buffers),
		capacity: entriesPerBuffer,
	}
}

// OnChange registers fn to be called whenever unit state changes in a way
// that could unblock a waiter (retirement, rotation). Used by the persist
// queue and store queue to re-pump.
func (u *BufferUnit) OnChange(fn func()) { u.subscribers = append(u.subscribers, fn) }

func (u *BufferUnit) notify() {
	for _, fn := range u.subscribers {
		u.eng.Schedule(0, fn)
	}
}

// Stats returns a copy of the unit's counters.
func (u *BufferUnit) Stats() UnitStats { return u.stats }

// Buffers reports the number of strand buffers.
func (u *BufferUnit) Buffers() int { return len(u.buffers) }

// OngoingIndex reports the buffer to which incoming entries are appended.
func (u *BufferUnit) OngoingIndex() int { return u.ongoing }

// Occupancy reports the number of unretired entries in buffer i.
func (u *BufferUnit) Occupancy(i int) int { return u.buffers[i].Len() }

// Drained reports whether every strand buffer is empty.
func (u *BufferUnit) Drained() bool {
	for i := range u.buffers {
		if u.buffers[i].Len() > 0 {
			return false
		}
	}
	return true
}

// TryAppendCLWB appends a CLWB for line to the ongoing strand buffer.
// It returns false (and does nothing) if the buffer is full. onComplete
// fires when the flush has been acknowledged by the PM controller and
// the entry has completed. ready, if non-nil, gates issue (see sbEntry).
func (u *BufferUnit) TryAppendCLWB(line mem.Addr, ready func() bool, onComplete func()) bool {
	b := &u.buffers[u.ongoing]
	if b.Len() >= u.capacity {
		return false
	}
	e := u.alloc()
	e.kind, e.line, e.onComplete, e.ready, e.buf = entryCLWB, line, onComplete, ready, b
	u.push(b, e)
	u.stats.CLWBsAccepted++
	u.issueEligible(b)
	return true
}

// TryAppendPB appends a persist barrier to the ongoing strand buffer,
// returning false if full. onComplete fires when every entry ahead of
// the barrier has completed and retired.
func (u *BufferUnit) TryAppendPB(onComplete func()) bool {
	b := &u.buffers[u.ongoing]
	if b.Len() >= u.capacity {
		return false
	}
	e := u.alloc()
	e.kind, e.onComplete, e.buf = entryPB, onComplete, b
	u.push(b, e)
	u.stats.PBsAccepted++
	// A barrier that arrives at an empty buffer completes right away.
	u.tryRetire(b)
	return true
}

// push stamps e and places it at b's tail.
func (u *BufferUnit) push(b *strandBuffer, e *sbEntry) {
	e.stamp = u.appended
	u.appended++
	b.Push(e)
}

// NewStrand rotates the ongoing buffer index round-robin and completes
// immediately (paper: the unit acknowledges NewStrand when it updates
// the current buffer index).
func (u *BufferUnit) NewStrand(onComplete func()) {
	u.ongoing = (u.ongoing + 1) % len(u.buffers)
	u.stats.NewStrands++
	if onComplete != nil {
		u.eng.Schedule(0, onComplete)
	}
	u.notify()
}

// issueEligible issues every unissued CLWB in b that is not behind a
// persist barrier and whose ready gate (if any) is satisfied.
func (u *BufferUnit) issueEligible(b *strandBuffer) {
	for _, x := range b.Live() {
		if x.kind == entryPB {
			break
		}
		if !x.hasIssued && (x.ready == nil || x.ready()) {
			u.issue(b, x)
		}
	}
}

// Kick re-evaluates issue eligibility in every buffer; the core calls it
// when external conditions (such as store-queue drains) may have
// satisfied entry gates.
func (u *BufferUnit) Kick() {
	for i := range u.buffers {
		u.issueEligible(&u.buffers[i])
	}
}

// issue performs a CLWB: an L1 lookup and, if dirty, a flush to the PM
// controller (cache.Flush models the datapath and its latencies).
func (u *BufferUnit) issue(b *strandBuffer, e *sbEntry) {
	if e.hasIssued {
		return
	}
	e.hasIssued = true
	u.stats.CLWBsIssued++
	u.stats.inFlight++
	if u.stats.inFlight > u.stats.MaxInFlight {
		u.stats.MaxInFlight = u.stats.inFlight
	}
	u.l1.Flush(e.line, e.flushDone)
}

// tryRetire pops completed entries from the buffer head in order. A
// persist barrier at the head completes (all entries ahead of it have
// retired), acknowledges, and unblocks the CLWBs behind it up to the
// next barrier.
func (u *BufferUnit) tryRetire(b *strandBuffer) {
	progressed := false
	for b.Len() > 0 {
		head := b.Front()
		if head.kind == entryPB {
			head.completed = true
			if head.onComplete != nil {
				u.eng.Schedule(0, head.onComplete)
			}
			u.pop(b)
			progressed = true
			// Resolve dependencies: issue CLWBs up to the next barrier.
			u.issueEligible(b)
			continue
		}
		if !head.completed {
			break
		}
		if head.onComplete != nil {
			u.eng.Schedule(0, head.onComplete)
		}
		u.pop(b)
		progressed = true
	}
	if progressed {
		u.serveGateWaits()
		u.notify()
	}
}

// pop retires the buffer head and recycles the entry (its completion has
// already been scheduled by value, so nothing references it afterwards).
func (u *BufferUnit) pop(b *strandBuffer) {
	e := b.Pop()
	*e = sbEntry{flushDone: e.flushDone}
	u.free.Put(e)
}

// RecordTails implements cache.PersistGate: it snapshots the unit's
// append count. The paper records each buffer's tail index in the
// write-back and snoop buffer entries; one unit-wide count carries the
// same information, because each buffer retires in append order — every
// buffer has retired past its recorded tail exactly when no live entry
// was appended before the token.
func (u *BufferUnit) RecordTails() cache.GateToken {
	return cache.GateToken{Tail: u.appended}
}

// CallWhenDrained implements cache.PersistGate: cb runs once every
// buffer has retired past the recorded tail.
func (u *BufferUnit) CallWhenDrained(t cache.GateToken, cb func()) {
	if u.drainedTo(t) {
		u.eng.Schedule(0, cb)
		return
	}
	u.gateWaits = append(u.gateWaits, gateWait{token: t, cb: cb})
}

// drainedTo reports whether every entry appended before t has retired:
// each buffer's head, its oldest live entry, is younger than the token.
func (u *BufferUnit) drainedTo(t cache.GateToken) bool {
	for i := range u.buffers {
		if b := &u.buffers[i]; b.Len() > 0 && b.Front().stamp < t.Tail {
			return false
		}
	}
	return true
}

func (u *BufferUnit) serveGateWaits() {
	kept := u.gateWaits[:0]
	for _, w := range u.gateWaits {
		if u.drainedTo(w.token) {
			u.stats.GateWaitsServed++
			u.eng.Schedule(0, w.cb)
		} else {
			kept = append(kept, w)
		}
	}
	u.gateWaits = kept
}
