package cpu

import (
	"strandweaver/internal/backend"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// sqKind discriminates store-queue entries: ordinary stores, and
// backend-defined ops (CLWBs and fences on designs that route them
// through the store queue in program order).
type sqKind uint8

const (
	sqStore sqKind = iota
	sqOp
)

type sqEntry struct {
	kind  sqKind
	addr  mem.Addr
	value uint64
	size  uint8
	seq   uint64
	// op is the backend operation for sqOp entries; it runs only at the
	// queue head.
	op backend.QueuedOp
	// gate, when set, must hold before a store may start draining (the
	// StrandWeaver persist-barrier store gate).
	gate backend.StoreGate
	// started and finished track a pipelined store drain: cache accesses
	// for consecutive stores may overlap (MSHRs), but visibility (the
	// functional write and the pop) happens in program order.
	started, finished bool
	// drainFn is the entry's cached drain-completion thunk, built once
	// when the entry is first allocated and reused across recycles (an
	// entry has at most one drain outstanding, and it always completes
	// before the entry is popped and recycled).
	drainFn func()
}

// storeQueue is the per-core store queue: entries drain to the L1 in
// program order (TSO). It implements backend.Queue (and with it
// strand.StoreTracker) for the persist backends. Popped entries return
// to a freelist, so steady-state stores allocate nothing.
type storeQueue struct {
	core *Core
	buf  sim.FIFO[*sqEntry]
	free sim.FreeList[*sqEntry]
	// busy marks a backend op holding the head (an async drain or a
	// NoPersistQueue JoinStrand wait).
	busy bool
	// popFn releases a backend op at the head; built once (the head op
	// is re-stepped on every pump while blocked, so this must not
	// allocate per attempt).
	popFn func()
}

func newStoreQueue(c *Core) *storeQueue {
	q := &storeQueue{core: c}
	q.popFn = func() {
		q.busy = false
		q.pop()
		c.kick()
	}
	return q
}

// Len reports current occupancy.
func (q *storeQueue) Len() int { return q.buf.Len() }

// alloc returns a recycled (or new) entry with all fields zeroed except
// the cached drain thunk.
func (q *storeQueue) alloc() *sqEntry {
	if e, ok := q.free.Get(); ok {
		return e
	}
	e := &sqEntry{}
	e.drainFn = func() {
		e.finished = true
		q.core.kick()
	}
	return e
}

// Full implements backend.Queue.
func (q *storeQueue) Full() bool {
	return q.Len() >= q.core.cfg.StoreQueueEntries
}

// Empty implements backend.Queue.
func (q *storeQueue) Empty() bool { return q.Len() == 0 }

// Enqueue implements backend.Queue: it appends a backend op behind all
// prior entries.
func (q *storeQueue) Enqueue(seq uint64, op backend.QueuedOp) {
	e := q.alloc()
	e.kind = sqOp
	e.seq = seq
	e.op = op
	q.push(e)
}

// pushStore appends an ordinary store entry.
func (q *storeQueue) pushStore(addr mem.Addr, value uint64, size uint8, seq uint64, gate backend.StoreGate) {
	e := q.alloc()
	e.kind = sqStore
	e.addr = addr
	e.value = value
	e.size = size
	e.seq = seq
	e.gate = gate
	q.push(e)
}

func (q *storeQueue) push(e *sqEntry) {
	q.buf.Push(e)
	q.core.kick()
}

func (q *storeQueue) pop() {
	e := q.buf.Pop()
	// Recycle: the drain thunk is kept, everything else resets.
	*e = sqEntry{drainFn: e.drainFn}
	q.free.Put(e)
}

// forward returns the value of the youngest elder store overlapping
// [addr, addr+size) if one is pending, for store-to-load forwarding.
// Exact-match forwarding only: the simulated workloads always access
// fields with consistent size and alignment.
func (q *storeQueue) forward(addr mem.Addr, size uint8) (uint64, bool) {
	live := q.buf.Live()
	for i := len(live) - 1; i >= 0; i-- {
		e := live[i]
		if e.kind == sqStore && e.addr == addr && e.size == size {
			return e.value, true
		}
	}
	return 0, false
}

// HasPendingStoreToLine implements strand.StoreTracker.
func (q *storeQueue) HasPendingStoreToLine(line mem.Addr, seq uint64) bool {
	for _, e := range q.buf.Live() {
		if e.seq >= seq {
			break
		}
		if e.kind == sqStore && mem.LineAddr(e.addr) == line {
			return true
		}
	}
	return false
}

// HasPendingStoreBefore implements strand.StoreTracker.
func (q *storeQueue) HasPendingStoreBefore(seq uint64) bool {
	for _, e := range q.buf.Live() {
		if e.seq >= seq {
			break
		}
		if e.kind == sqStore {
			return true
		}
	}
	return false
}

// pump advances the store queue. Stores drain with overlap: up to
// L1MSHRs cache accesses may be in flight at once (an out-of-order
// core's store misses pipeline), but visibility — the functional write
// and the pop — is strictly in program order (TSO). Backend ops (CLWBs
// and fences, on designs that route them through the store queue) are
// handled only at the head, which is exactly what creates the
// head-of-line blocking the persist queue exists to avoid.
func (q *storeQueue) pump() {
	if q.Len() == 0 {
		return
	}
	c := q.core
	// Retire finished stores from the head, in order.
	for q.Len() > 0 {
		head := q.buf.Front()
		if head.kind != sqStore || !head.finished {
			break
		}
		q.writeFunctional(head)
		q.pop()
		c.kick()
	}
	// Start eligible store drains, in order, up to the MSHR limit;
	// scanning stops at the first backend op (fence or CLWB), which
	// must reach the head before draining.
	inFlight := 0
	for _, e := range q.buf.Live() {
		if e.kind != sqStore {
			break
		}
		if e.started && !e.finished {
			inFlight++
			if inFlight >= c.cfg.L1MSHRs {
				return
			}
			continue
		}
		if e.started {
			continue
		}
		// A store's issue gate (if any) must hold before it drains.
		if e.gate.Ready != nil && !e.gate.Ready(e.gate.Seq) {
			return
		}
		e.started = true
		inFlight++
		c.l1.Store(mem.LineAddr(e.addr), e.drainFn)
		if inFlight >= c.cfg.L1MSHRs {
			return
		}
	}
	if q.Len() == 0 || q.busy {
		return
	}
	head := q.buf.Front()
	if head.kind != sqOp {
		return
	}
	// The pop callback releases the head: it is invoked by the queue
	// itself on OpDone, or later by the op on OpAsync.
	q.busy = true
	switch head.op.Step(q.popFn) {
	case backend.OpDone:
		q.popFn()
	case backend.OpBlocked:
		// No progress; retry on a later pump.
		q.busy = false
	case backend.OpAsync:
		// The op owns the head and will invoke pop.
	}
}

// writeFunctional applies the store's value to the globally visible
// image at drain time (visibility point) and notifies the backend —
// for eADR, visibility is the persistence point.
func (q *storeQueue) writeFunctional(e *sqEntry) {
	switch e.size {
	case 8:
		q.core.machine.Volatile.Write64(e.addr, e.value)
	case 4:
		q.core.machine.Volatile.Write32(e.addr, uint32(e.value))
	case 1:
		q.core.machine.Volatile.SetByte(e.addr, byte(e.value))
	default:
		panic("cpu: unsupported store size")
	}
	q.core.be.OnStoreVisible(e.addr, e.value, e.size)
}
