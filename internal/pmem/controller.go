// Package pmem models the memory controller of the simulated machine.
// The PM side is ADR-supported (asynchronous data refresh): once a write
// is accepted into the controller's write queue it is guaranteed durable,
// so acceptance is the persistence point. The controller then drains
// accepted writes to the PM media in the background across PMBanks banks.
//
// The DRAM side shares the controller front-end but writes to DRAM are
// never durable; they simply complete.
//
// The controller is also the simulator's persistence boundary for fault
// injection (package faultinject): it tracks every PM write from
// submission to media drain, exposing (a) the submitted-but-unaccepted
// writes whose 8-byte sub-words race the power failure (torn persists),
// (b) the accepted-but-undrained writes inside the ADR domain, and (c) a
// FaultHook consulted at each media write attempt to inject transient
// media failures and latency spikes with bounded retry/backoff.
package pmem

import (
	"slices"

	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// WriteAck is invoked when a submitted PM write has been accepted by the
// controller (i.e. has persisted).
type WriteAck func()

// ReadDone is invoked when a read request completes.
type ReadDone func()

// MediaVerdict is a FaultHook's decision for one media write attempt.
type MediaVerdict struct {
	// ExtraCycles is added to the media write latency (a latency spike).
	ExtraCycles sim.Cycle
	// Fail makes the attempt a transient write failure: the bank holds
	// the line and retries after the configured backoff, up to the
	// configured retry bound.
	Fail bool
}

// FaultHook intercepts controller-to-media write attempts. attempt is
// 0 for the first try and counts retries after transient failures.
// Implementations must be deterministic given the engine's event order.
type FaultHook interface {
	MediaWrite(line mem.Addr, attempt int) MediaVerdict
}

type pendingWrite struct {
	line mem.Addr
	data [mem.LineSize]byte
	ack  WriteAck
	// seq is the submission stamp, which orders the unaccepted writes
	// of every controller in one stream (see Topology.Snapshot).
	seq uint64
	// arrivedAt is the cycle the write reached the controller while the
	// write queue was full (overflow-queue stall accounting).
	arrivedAt sim.Cycle
}

// drainEntry is one accepted write on its way to media.
type drainEntry struct {
	line mem.Addr
	// old is the persistent image's prior content of the line, captured
	// at acceptance (the pre-state a torn drain would partially revert
	// to under the beyond-ADR TearAccepted torture mode).
	old [mem.LineSize]byte
	// data is the accepted line contents.
	data [mem.LineSize]byte
	// attempts counts media write tries (retries after transient faults).
	attempts int
	// pendingFail carries the fault verdict of the in-flight media
	// attempt to doneFn; an entry has at most one attempt outstanding.
	pendingFail bool
	// doneFn and retryFn are the entry's cached media-attempt thunks,
	// built once at allocation and reused across recycles (media
	// attempts on different banks complete out of order, so these
	// cannot be single controller-wide slots).
	doneFn  func()
	retryFn func()
}

// LineWrite is a snapshot of one tracked PM line write.
type LineWrite struct {
	// Line is the line-aligned PM address.
	Line mem.Addr
	// Old is the persistent image's content before this write (only
	// populated for accepted writes).
	Old [mem.LineSize]byte
	// Data is the line contents the write carries.
	Data [mem.LineSize]byte
}

// Controller is the shared DRAM+PM memory controller.
type Controller struct {
	// t is the topology the controller belongs to, which holds the
	// engine, configuration, machine images, submission counter,
	// persistence point and log every controller shares; index is the
	// controller's position in it, which names it in the log.
	t     *Topology
	index int
	// transit holds PM writes submitted but not yet arrived at the
	// controller front-end (on-chip flight), in submission order. The
	// on-chip latency is one constant, so arrivals are FIFO and arriveFn
	// (built once) pops the front — no closure per submission.
	transit  sim.FIFO[*pendingWrite]
	arriveFn func()
	// pending holds PM writes that arrived while the write queue was
	// full, oldest first; they are accepted FIFO as entries free.
	pending sim.FIFO[*pendingWrite]
	// freePW and freeDE recycle tracking records so the steady-state
	// write path allocates nothing.
	freePW sim.FreeList[*pendingWrite]
	freeDE sim.FreeList[*drainEntry]

	// inflight is the write queue: every accepted, undrained write in
	// acceptance order, so its length is the queue's occupancy. Banks
	// take writes in acceptance order, so the newest waiting entries
	// are the writes no bank has started, and each older one holds a
	// bank until its media write completes. Without media faults writes
	// complete in the order they start, so a drained write leaves from
	// the front.
	inflight sim.FIFO[*drainEntry]
	waiting  int

	// faults, when non-nil, is consulted at each media write attempt.
	faults FaultHook

	// fired counts the controller's own events by log kind (arrivals,
	// read completions, media writes and retries): a Walker matches the
	// events a log holds against them.
	fired [numLogKinds]uint64

	// readAcks holds the completions of the outstanding PM reads, at
	// most the read queue's entries. PM read latency is one constant, so
	// in-flight reads complete FIFO: readAcks is in issue order and
	// readDoneFn (built once) pops the front. pendingReads wait for a
	// free read-queue slot.
	pendingReads sim.FIFO[ReadDone]
	readAcks     sim.FIFO[ReadDone]
	readDoneFn   func()

	stats Stats
}

// Stats aggregates controller activity.
type Stats struct {
	// PMWritesAccepted counts line writes that reached the persistence
	// domain (flushes plus dirty write-backs).
	PMWritesAccepted uint64
	// PMWritesDrained counts line writes completed to media.
	PMWritesDrained uint64
	// PMReads counts PM read requests serviced.
	PMReads uint64
	// DRAMReads and DRAMWrites count volatile-region traffic.
	DRAMReads  uint64
	DRAMWrites uint64
	// WriteQueueFullEvents counts arrivals that found the write queue
	// full and had to wait.
	WriteQueueFullEvents uint64
	// MaxWriteQueueDepth tracks the high-water mark of the write queue.
	MaxWriteQueueDepth int
	// MaxPendingArrivals tracks the high-water mark of the overflow
	// queue (arrivals waiting for a free write-queue entry).
	MaxPendingArrivals int
	// OverflowHighWater samples each new overflow-queue high-water mark
	// as it is set, in time order (bounded to overflowSampleCap). Depths
	// are strictly increasing, so the last sample equals
	// MaxPendingArrivals unless the cap was hit.
	OverflowHighWater []OverflowSample
	// PendingStallCycles accumulates the cycles arrivals spent waiting
	// in the overflow queue before acceptance.
	PendingStallCycles uint64
	// MediaWriteFaults counts transient media write failures injected at
	// the bank-drain stage.
	MediaWriteFaults uint64
	// MediaRetriesExhausted counts lines whose retry budget ran out (the
	// write is then forced through, modelling a media-scrub success, so
	// the simulation cannot wedge).
	MediaRetriesExhausted uint64
	// MediaFaultDelayCycles accumulates injected media latency (spikes
	// plus retry backoff).
	MediaFaultDelayCycles uint64
}

// Add folds other into s: counters sum, high-water marks take the
// maximum, and the OverflowHighWater samples follow whichever side
// reached the deepest overflow queue. It is the single merge rule for
// controller statistics — per-run folds in the sweep engine and
// per-controller aggregation in the topology both use it, so a new
// Stats field only needs its merge defined here.
func (s *Stats) Add(other Stats) {
	s.PMWritesAccepted += other.PMWritesAccepted
	s.PMWritesDrained += other.PMWritesDrained
	s.PMReads += other.PMReads
	s.DRAMReads += other.DRAMReads
	s.DRAMWrites += other.DRAMWrites
	s.WriteQueueFullEvents += other.WriteQueueFullEvents
	if other.MaxWriteQueueDepth > s.MaxWriteQueueDepth {
		s.MaxWriteQueueDepth = other.MaxWriteQueueDepth
	}
	if other.MaxPendingArrivals > s.MaxPendingArrivals {
		s.MaxPendingArrivals = other.MaxPendingArrivals
		s.OverflowHighWater = other.OverflowHighWater
	}
	s.PendingStallCycles += other.PendingStallCycles
	s.MediaWriteFaults += other.MediaWriteFaults
	s.MediaRetriesExhausted += other.MediaRetriesExhausted
	s.MediaFaultDelayCycles += other.MediaFaultDelayCycles
}

// OverflowSample records one overflow-queue high-water event: at Cycle
// the overflow queue first reached Depth waiting arrivals.
type OverflowSample struct {
	Cycle sim.Cycle `json:"cycle"`
	Depth int       `json:"depth"`
}

// overflowSampleCap bounds the high-water samples kept per controller.
// Depths are strictly increasing, so the cap is only reachable when the
// overflow queue grows past overflowSampleCap entries deep.
const overflowSampleCap = 64

// newController returns controller index of t.
func newController(t *Topology, index int) *Controller {
	c := &Controller{t: t, index: index}
	c.arriveFn = func() {
		c.fire(logArrive)
		c.arrive(c.transit.Pop())
	}
	c.readDoneFn = func() {
		c.fire(logReadDone)
		done := c.readAcks.Pop()
		c.stats.PMReads++
		done()
		if c.pendingReads.Len() > 0 {
			c.startRead(c.pendingReads.Pop())
		}
	}
	return c
}

// nop is the ack a volatile flush with none fires and the completion
// walked reads carry.
func nop() {}

// allocPW returns a recycled (or new) pendingWrite, fields zeroed.
func (c *Controller) allocPW() *pendingWrite {
	if w, ok := c.freePW.Get(); ok {
		return w
	}
	return &pendingWrite{}
}

// allocDE returns a recycled (or new) drainEntry with its cached media
// thunks intact and every other field zeroed.
func (c *Controller) allocDE() *drainEntry {
	if e, ok := c.freeDE.Get(); ok {
		return e
	}
	e := &drainEntry{}
	e.doneFn = func() {
		c.fire(logMediaDone)
		c.mediaWriteDone(e, e.pendingFail)
	}
	e.retryFn = func() {
		c.fire(logMediaRetry)
		c.startMediaWrite(e)
	}
	return e
}

// Stats returns a snapshot of the accumulated statistics. The snapshot
// is deep: its OverflowHighWater slice is a private copy, so holding or
// mutating a snapshot never aliases the live controller — results that
// embed one can safely cross goroutines (the parallel sweep engine
// reads per-cell snapshots from collector goroutines).
func (c *Controller) Stats() Stats { return c.stats.clone() }

// clone returns s with a private copy of its OverflowHighWater slice.
func (s Stats) clone() Stats {
	s.OverflowHighWater = append([]OverflowSample(nil), s.OverflowHighWater...)
	return s
}

// SetFaultHook installs (or, with nil, removes) the media fault hook.
func (c *Controller) SetFaultHook(h FaultHook) { c.faults = h }

// SubmitPMWrite sends the given snapshot of a PM line toward the
// controller. After the on-chip transit latency the write is accepted as
// soon as a write-queue entry is free; acceptance persists the data and
// schedules ack after the acknowledgement latency. ack may be nil.
func (c *Controller) SubmitPMWrite(line mem.Addr, data [mem.LineSize]byte, ack WriteAck) {
	if !mem.IsPM(line) {
		// Flush of a volatile line: no durability action; ack after the
		// same round trip so timing stays uniform.
		if ack == nil {
			ack = nop
		}
		c.t.eng.Schedule(sim.Cycle(c.t.cfg.PMWriteToControllerCycles+c.t.cfg.PMAckCycles), sim.Event(ack))
		return
	}
	if c.t.log != nil {
		c.t.log.add(logSubmitPM, c.t.eng.Now(), c.index, line, 0)
		c.t.log.lines.push(data)
	}
	c.t.submitSeq++
	w := c.allocPW()
	w.line, w.data, w.ack, w.seq = line, data, ack, c.t.submitSeq
	c.transit.Push(w)
	c.t.eng.Schedule(sim.Cycle(c.t.cfg.PMWriteToControllerCycles), c.arriveFn)
}

func (c *Controller) arrive(w *pendingWrite) {
	if c.inflight.Len() >= c.t.cfg.PMWriteQueueEntries {
		c.stats.WriteQueueFullEvents++
		w.arrivedAt = c.t.eng.Now()
		c.pending.Push(w)
		if n := c.pending.Len(); n > c.stats.MaxPendingArrivals {
			c.stats.MaxPendingArrivals = n
			if len(c.stats.OverflowHighWater) < overflowSampleCap {
				c.stats.OverflowHighWater = append(c.stats.OverflowHighWater,
					OverflowSample{Cycle: c.t.eng.Now(), Depth: n})
			}
		}
		return
	}
	c.accept(w)
}

// accept is the persistence point, unless the topology persists at
// visibility.
func (c *Controller) accept(w *pendingWrite) {
	e := c.allocDE()
	e.line, e.data = w.line, w.data
	c.t.machine.Persistent.CopyLine(w.line, &e.old)
	if !c.t.atVisibility {
		c.t.machine.Persistent.StoreLine(w.line, &w.data)
	}
	c.inflight.Push(e)
	c.waiting++
	c.stats.MaxWriteQueueDepth = max(c.stats.MaxWriteQueueDepth, c.inflight.Len())
	c.stats.PMWritesAccepted++
	if w.ack != nil {
		c.t.eng.Schedule(sim.Cycle(c.t.cfg.PMAckCycles), sim.Event(w.ack))
	}
	// The tracking record is dead once accepted (the persistent image
	// and drain entry hold copies of the data).
	*w = pendingWrite{}
	c.freePW.Put(w)
	c.tryDrain()
}

// tryDrain starts media writes on free banks, oldest waiting write
// first.
func (c *Controller) tryDrain() {
	for c.waiting > 0 && c.inflight.Len()-c.waiting < c.t.cfg.PMBanks {
		e := c.inflight.Live()[c.inflight.Len()-c.waiting]
		c.waiting--
		c.startMediaWrite(e)
	}
}

// startMediaWrite performs one media write attempt for e on its bank,
// consulting the fault hook for injected failures and latency spikes.
func (c *Controller) startMediaWrite(e *drainEntry) {
	latency := sim.Cycle(c.t.cfg.PMWriteToMediaCycles)
	fail := false
	if c.faults != nil {
		v := c.faults.MediaWrite(e.line, e.attempts)
		latency += v.ExtraCycles
		c.stats.MediaFaultDelayCycles += uint64(v.ExtraCycles)
		fail = v.Fail
	}
	e.pendingFail = fail
	c.t.eng.Schedule(latency, e.doneFn)
}

func (c *Controller) mediaWriteDone(e *drainEntry, failed bool) {
	if failed {
		c.stats.MediaWriteFaults++
		e.attempts++
		if e.attempts <= c.t.cfg.PMMediaMaxRetries {
			// Transient failure: the bank holds the line and retries
			// after the backoff.
			backoff := sim.Cycle(c.t.cfg.PMMediaRetryBackoffCycles)
			c.stats.MediaFaultDelayCycles += uint64(backoff)
			c.t.eng.Schedule(backoff, e.retryFn)
			return
		}
		// Retry budget exhausted: force the write through (media scrub)
		// rather than wedging the write queue forever.
		c.stats.MediaRetriesExhausted++
	}
	c.stats.PMWritesDrained++
	c.inflight.Remove(slices.Index(c.inflight.Live(), e))
	// Recycle (keeping the cached thunks): nothing references the entry
	// once it leaves inflight.
	*e = drainEntry{doneFn: e.doneFn, retryFn: e.retryFn}
	c.freeDE.Put(e)
	// A queue entry freed: accept a waiting arrival, oldest first.
	if c.pending.Len() > 0 && c.inflight.Len() < c.t.cfg.PMWriteQueueEntries {
		w := c.pending.Pop()
		c.stats.PendingStallCycles += uint64(c.t.eng.Now() - w.arrivedAt)
		c.accept(w)
	}
	c.tryDrain()
}

// SubmitRead requests a line fill from memory. For PM addresses the
// Table-I read latency applies and the read queue bounds concurrency;
// DRAM reads use the DRAM latency and are unbounded (DRAM bandwidth is
// not the bottleneck in any modelled workload).
func (c *Controller) SubmitRead(line mem.Addr, done ReadDone) {
	if done == nil {
		panic("pmem: SubmitRead with nil completion")
	}
	if c.t.log != nil {
		c.t.log.add(logSubmitRead, c.t.eng.Now(), c.index, line, 0)
	}
	if !mem.IsPM(line) {
		c.stats.DRAMReads++
		c.t.eng.Schedule(sim.Cycle(c.t.cfg.DRAMReadCycles), sim.Event(done))
		return
	}
	if c.readAcks.Len() >= c.t.cfg.PMReadQueueEntries {
		c.pendingReads.Push(done)
		return
	}
	c.startRead(done)
}

// startRead issues one PM read: its completion joins the readAcks FIFO
// (constant latency, so reads complete in issue order) and readDoneFn
// pops it — the steady-state read path allocates nothing.
func (c *Controller) startRead(done ReadDone) {
	c.readAcks.Push(done)
	c.t.eng.Schedule(sim.Cycle(c.t.cfg.PMReadCycles), c.readDoneFn)
}

// SubmitDRAMWrite absorbs a volatile write-back; DRAM writes complete
// without modelled back-pressure.
func (c *Controller) SubmitDRAMWrite(line mem.Addr) {
	if c.t.log != nil {
		c.t.log.add(logDRAMWrite, c.t.eng.Now(), c.index, line, 0)
	}
	c.stats.DRAMWrites++
}
