package pmem

import "strandweaver/internal/mem"

// TrackedWrite is the passive form of one write the controller has not
// yet accepted (still in transit on the interconnect, or parked in the
// overflow queue waiting for a write-queue slot). Seq is its
// submission stamp, which orders the unaccepted writes across
// controllers. The acceptance ack callback is deliberately dropped: it
// is a closure into the core that sent the write, part of the
// micro-architectural future a crash cut destroys (docs/SNAPSHOT.md).
type TrackedWrite struct {
	Line mem.Addr
	Data [mem.LineSize]byte
	Seq  uint64
}

// ControllerState is a crash-cut checkpoint of one controller: exactly
// the inputs UnacceptedWrites, AcceptedInFlight and Stats read. The
// unaccepted writes are in submission order; Accepted holds the
// accepted-but-undrained writes in acceptance order, with the
// persistent image's pre-write contents. Everything that only resuming
// the controller would need — queue occupancy, bank state, media
// retries, the submission counter, ack queues — is not captured.
type ControllerState struct {
	Unaccepted []TrackedWrite
	Accepted   []LineWrite
	Stats      Stats
}

// Snapshot captures the controller's tracked writes and counters as
// pure data. The returned state shares nothing with the controller.
func (c *Controller) Snapshot() *ControllerState {
	s := &ControllerState{
		Accepted: c.AcceptedInFlight(),
		Stats:    c.Stats(), // deep-copies OverflowHighWater
	}
	for _, w := range c.unaccepted() {
		s.Unaccepted = append(s.Unaccepted, TrackedWrite{Line: w.line, Data: w.data, Seq: w.seq})
	}
	return s
}

// Restore rewinds the controller's crash-visible state to a captured
// one. Entries are rebuilt through the controller's own alloc paths
// (recycling the live ones) so their cached completion thunks bind
// this controller, never the one the checkpoint came from (the
// cached-thunk rule, docs/SNAPSHOT.md). A restored controller answers
// UnacceptedWrites / AcceptedInFlight / Stats identically to the
// original at the capture point, which is all a crash-cut checkpoint
// is for; it is never run.
func (c *Controller) Restore(s *ControllerState) {
	// Recycle the tracked entries. drainq holds a subset of inflight,
	// so entries are returned to the freelist via inflight only.
	for _, w := range c.transit.Live() {
		*w = pendingWrite{}
		c.freePW.Put(w)
	}
	for _, w := range c.pending.Live() {
		*w = pendingWrite{}
		c.freePW.Put(w)
	}
	for _, e := range c.inflight {
		*e = drainEntry{doneFn: e.doneFn, retryFn: e.retryFn}
		c.freeDE.Put(e)
	}
	c.transit.Clear()
	c.pending.Clear()
	c.drainq.Clear()
	clear(c.inflight)
	c.inflight = c.inflight[:0]

	// The unaccepted writes all restore into transit, already in
	// submission order.
	for i := range s.Unaccepted {
		t := &s.Unaccepted[i]
		w := c.allocPW()
		w.line, w.data, w.seq = t.Line, t.Data, t.Seq
		c.transit.Push(w)
	}
	for i := range s.Accepted {
		a := &s.Accepted[i]
		e := c.allocDE()
		e.line, e.old, e.data = a.Line, a.Old, a.Data
		c.inflight = append(c.inflight, e)
	}
	st := s.Stats
	st.OverflowHighWater = append([]OverflowSample(nil), s.Stats.OverflowHighWater...)
	c.stats = st
}
