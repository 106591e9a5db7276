package strand

import (
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// StoreTracker is the persist queue's window into the core's store
// queue, used for the store-ordering rules of Section IV ("Persist queue
// operation").
type StoreTracker interface {
	// HasPendingStoreToLine reports whether any store older than seq to
	// the given cache line has not yet drained to the L1 (the
	// load-to-store-forwarding-style lookup the persist queue performs
	// on CLWB insertion).
	HasPendingStoreToLine(line mem.Addr, seq uint64) bool
	// HasPendingStoreBefore reports whether any store older than seq
	// has not yet drained to the L1.
	HasPendingStoreBefore(seq uint64) bool
}

// Entry is a handle to a persist-queue entry. The store queue gates
// stores on "prior CLWBs issued" (persist-barrier rule) and the
// front-end waits for JoinStrand completion through it. A handle names
// its entry by sequence number, not by storage: the queue recycles
// entry storage once an entry retires, and a handle keeps answering for
// its own entry afterwards — never for a younger one that reuses the
// slot.
type Entry struct {
	pq   *PersistQueue
	seq  uint64
	kind entryKind
}

// HasIssued reports whether the entry has been issued to the strand
// buffer unit. Issue is in program order, so that is the case once the
// queue has issued anything at or past the entry's seq. A JoinStrand is
// never issued.
func (e Entry) HasIssued() bool { return e.kind != entryJS && e.pq.Issued(e.seq) }

// Completed reports whether the entry has completed.
func (e Entry) Completed() bool {
	if e.Retired() {
		return true
	}
	x := e.pq.live(e.seq)
	return x != nil && x.completed
}

// Retired reports whether the entry has left the persist queue.
// Retirement is in program order.
func (e Entry) Retired() bool { return e.seq <= e.pq.retiredSeq }

// pqEntry is one persist-queue slot. Slots are pooled with their
// completion thunk (an entry completes exactly once, before it retires
// and its slot recycles), so insert, issue and completion allocate
// nothing in steady state.
type pqEntry struct {
	kind entryKind
	line mem.Addr
	// seq is the core-wide program-order sequence number.
	seq uint64
	// barrierSeq, for CLWBs, is the sequence number of the youngest
	// elder persist barrier with no intervening NewStrand (0 if none):
	// stores older than barrierSeq must drain before the CLWB issues.
	barrierSeq uint64
	hasIssued  bool
	completed  bool
	// doneFn marks the entry completed and pumps the queue; it is the
	// completion callback handed to the strand buffer unit.
	doneFn func()
}

// PersistQueue implements the paper's persist queue: a FIFO alongside
// the store queue that records ongoing CLWBs, persist barriers,
// NewStrand and JoinStrand operations, issues them in order to the
// strand buffer unit, and retires them in order on completion.
type PersistQueue struct {
	eng      *sim.Engine
	sbu      *BufferUnit
	tracker  StoreTracker
	capacity int
	// entries are the live entries, oldest first, and free recycles
	// retired slots.
	entries sim.FIFO[*pqEntry]
	free    sim.FreeList[*pqEntry]
	// lastSeq is the youngest inserted seq; issuedSeq and retiredSeq are
	// the seqs of the youngest issued and retired entries (0 = none).
	// Issue and retirement are in program order, so these three answer
	// every Entry handle.
	lastSeq, issuedSeq, retiredSeq uint64
	onChange                       func()
	pumping                        bool

	stats QueueStats
}

// QueueStats aggregates persist-queue activity.
type QueueStats struct {
	CLWBs, PBs, NSs, JSs uint64
	MaxOccupancy         int
}

// NewPersistQueue builds a persist queue of the given capacity issuing
// to sbu and observing stores through tracker.
func NewPersistQueue(eng *sim.Engine, sbu *BufferUnit, tracker StoreTracker, capacity int) *PersistQueue {
	pq := &PersistQueue{eng: eng, sbu: sbu, tracker: tracker, capacity: capacity}
	sbu.OnChange(pq.Pump)
	return pq
}

// SetOnChange registers a callback fired whenever queue state changes
// (issue or retirement); the core uses it to re-evaluate store gates and
// wake stalled front-ends.
func (pq *PersistQueue) SetOnChange(fn func()) { pq.onChange = fn }

func (pq *PersistQueue) changed() {
	if pq.onChange != nil {
		pq.eng.Schedule(0, pq.onChange)
	}
}

// Stats returns a copy of the queue counters.
func (pq *PersistQueue) Stats() QueueStats { return pq.stats }

// Full reports whether the queue has no free entry.
func (pq *PersistQueue) Full() bool { return pq.Len() >= pq.capacity }

// Len reports current occupancy.
func (pq *PersistQueue) Len() int { return pq.entries.Len() }

// Empty reports whether the queue is empty.
func (pq *PersistQueue) Empty() bool { return pq.Len() == 0 }

// Issued reports whether the persist barrier, CLWB or NewStrand with
// the given seq has issued to the strand buffer unit. The answer stays
// valid after the entry retires.
func (pq *PersistQueue) Issued(seq uint64) bool { return seq <= pq.issuedSeq }

// live returns the live entry with the given seq, or nil.
func (pq *PersistQueue) live(seq uint64) *pqEntry {
	for _, x := range pq.entries.Live() {
		if x.seq == seq {
			return x
		}
	}
	return nil
}

// insert appends a new entry. Sequence numbers must increase from one
// insert to the next (they are program order).
func (pq *PersistQueue) insert(kind entryKind, seq uint64, line mem.Addr, barrierSeq uint64) Entry {
	if pq.Full() {
		panic("strand: insert into full persist queue (front-end must check Full)")
	}
	if seq <= pq.lastSeq {
		panic("strand: persist-queue insert out of program order")
	}
	pq.lastSeq = seq
	e, ok := pq.free.Get()
	if !ok {
		e = &pqEntry{}
		e.doneFn = func() {
			e.completed = true
			pq.Pump()
		}
	}
	e.kind, e.seq, e.line, e.barrierSeq = kind, seq, line, barrierSeq
	pq.entries.Push(e)
	if n := pq.Len(); n > pq.stats.MaxOccupancy {
		pq.stats.MaxOccupancy = n
	}
	pq.Pump()
	return Entry{pq: pq, seq: seq, kind: kind}
}

// InsertCLWB appends a CLWB. The caller must have checked Full.
func (pq *PersistQueue) InsertCLWB(seq uint64, line mem.Addr, barrierSeq uint64) Entry {
	pq.stats.CLWBs++
	return pq.insert(entryCLWB, seq, line, barrierSeq)
}

// InsertPB appends a persist barrier.
func (pq *PersistQueue) InsertPB(seq uint64) Entry {
	pq.stats.PBs++
	return pq.insert(entryPB, seq, 0, 0)
}

// InsertNS appends a NewStrand.
func (pq *PersistQueue) InsertNS(seq uint64) Entry {
	pq.stats.NSs++
	return pq.insert(entryNS, seq, 0, 0)
}

// InsertJS appends a JoinStrand. JoinStrand is not issued to the strand
// buffer unit; it completes when all elder persist-queue entries have
// completed and retired and all elder stores have drained.
func (pq *PersistQueue) InsertJS(seq uint64) Entry {
	pq.stats.JSs++
	return pq.insert(entryJS, seq, 0, 0)
}

// Pump advances the queue: issues the oldest unissued entries whose
// dependencies have resolved (in order) and retires completed entries
// from the head. It is safe to call at any time; reentrant calls are
// coalesced.
func (pq *PersistQueue) Pump() {
	if pq.pumping {
		return
	}
	pq.pumping = true
	defer func() { pq.pumping = false }()

	for {
		progressed := false
		// Retire from the head in order.
		for pq.Len() > 0 {
			head := pq.entries.Front()
			if head.kind == entryJS && !head.completed {
				// JoinStrand completes when it reaches the head (all
				// elder entries retired) and elder stores have drained.
				if !pq.tracker.HasPendingStoreBefore(head.seq) {
					head.completed = true
				}
			}
			if !head.completed {
				break
			}
			pq.retire()
			progressed = true
		}
		// Issue in order: only the oldest unissued entry may issue.
		if e := pq.oldestUnissued(); e != nil && pq.tryIssue(e) {
			progressed = true
		}
		if !progressed {
			break
		}
		pq.changed()
	}
}

// retire pops the completed head entry and recycles its slot.
func (pq *PersistQueue) retire() {
	e := pq.entries.Pop()
	pq.retiredSeq = e.seq
	*e = pqEntry{doneFn: e.doneFn}
	pq.free.Put(e)
}

func (pq *PersistQueue) oldestUnissued() *pqEntry {
	for _, e := range pq.entries.Live() {
		if e.kind == entryJS {
			// JoinStrand blocks further issue until it retires; nothing
			// younger can exist anyway because the front-end stalls.
			return nil
		}
		if !e.hasIssued {
			return e
		}
	}
	return nil
}

func (pq *PersistQueue) tryIssue(e *pqEntry) bool {
	switch e.kind {
	case entryCLWB:
		// Persist-barrier rule: stores elder than the governing barrier
		// must have drained ("orders issue of prior stores before
		// subsequent CLWBs").
		if e.barrierSeq != 0 && pq.tracker.HasPendingStoreBefore(e.barrierSeq) {
			return false
		}
		// Same-line rule: the store-queue lookup performed on CLWB
		// insertion; the CLWB may not pass an elder store to its line.
		if pq.tracker.HasPendingStoreToLine(e.line, e.seq) {
			return false
		}
		if !pq.sbu.TryAppendCLWB(e.line, nil, e.doneFn) {
			return false
		}
	case entryPB:
		if !pq.sbu.TryAppendPB(e.doneFn) {
			return false
		}
	case entryNS:
		pq.sbu.NewStrand(e.doneFn)
	default:
		return false
	}
	e.hasIssued = true
	pq.issuedSeq = e.seq
	return true
}
