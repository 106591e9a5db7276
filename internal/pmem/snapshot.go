package pmem

// TopologyState is a crash-cut checkpoint of the PM side: exactly what
// a power cut reads of the controllers. Unaccepted is the machine-wide
// stream of writes submitted but not accepted (on-chip transit plus
// every controller's overflow queue) in submission order, the one
// stream a power cut truncates (package faultinject). Ctrls holds each
// controller's share of the rest, in controller index order. The
// acceptance ack callbacks are deliberately dropped: they are closures
// into the cores that sent the writes, part of the micro-architectural
// future a crash cut destroys (docs/SNAPSHOT.md).
type TopologyState struct {
	Unaccepted []LineWrite
	Ctrls      []ControllerState
}

// ControllerState is one controller's share of a checkpoint: its
// accepted-but-undrained writes in acceptance order (the write queue),
// with the persistent image's pre-write contents, and its statistics.
// Everything that only resuming the controller would need — which
// writes a bank has started, media retries, the submission counter,
// ack queues — is not captured.
type ControllerState struct {
	Accepted []LineWrite
	Stats    Stats
}

// Snapshot captures the topology's crash-visible state as pure data
// sharing nothing with the topology. The unaccepted writes are merged
// once, by submission stamp. Within one controller they are already in
// submission order, overflow queue first: a write joins the overflow
// queue only once it has arrived, and arrivals are FIFO at one transit
// latency.
func (t *Topology) Snapshot() *TopologyState {
	s := &TopologyState{Ctrls: make([]ControllerState, len(t.ctrls))}
	n := 0
	for i, c := range t.ctrls {
		acc := make([]LineWrite, c.inflight.Len())
		for j, e := range c.inflight.Live() {
			acc[j] = LineWrite{Line: e.line, Old: e.old, Data: e.data}
		}
		s.Ctrls[i] = ControllerState{Accepted: acc, Stats: c.Stats()}
		n += c.pending.Len() + c.transit.Len()
	}
	if n == 0 {
		return s
	}
	s.Unaccepted = make([]LineWrite, 0, n)
	next := make([]int, len(t.ctrls))
	for len(s.Unaccepted) < n {
		var first *pendingWrite
		from := 0
		for i, c := range t.ctrls {
			if w := c.unaccepted(next[i]); w != nil && (first == nil || w.seq < first.seq) {
				first, from = w, i
			}
		}
		next[from]++
		s.Unaccepted = append(s.Unaccepted, LineWrite{Line: first.line, Data: first.data})
	}
	return s
}

// Stats returns what Topology.Stats reported at the capture: the
// controllers' statistics merged in index order. The result shares no
// storage with the state, which goroutines may share.
func (s *TopologyState) Stats() Stats {
	per := make([]Stats, len(s.Ctrls))
	for i, c := range s.Ctrls {
		per[i] = c.Stats
	}
	return merged(per)
}

// unaccepted returns the controller's i-th unaccepted write in
// submission order, or nil past the last.
func (c *Controller) unaccepted(i int) *pendingWrite {
	pending, transit := c.pending.Live(), c.transit.Live()
	if i < len(pending) {
		return pending[i]
	}
	if i -= len(pending); i < len(transit) {
		return transit[i]
	}
	return nil
}

// Restore rewinds the topology's crash-visible state to s, captured
// from an identically configured topology; it panics on a controller
// count mismatch. Each unaccepted write goes back into its
// controller's transit (IndexOf routes it), stamped in stream order, so
// a restored topology answers Snapshot identically to the original at
// the capture point, which is all a crash-cut checkpoint is for; it is
// never run.
func (t *Topology) Restore(s *TopologyState) {
	if len(s.Ctrls) != len(t.ctrls) {
		panic("pmem: Topology.Restore with mismatched controller count")
	}
	for i, c := range t.ctrls {
		c.restore(&s.Ctrls[i])
	}
	for _, u := range s.Unaccepted {
		c := t.ctrls[t.IndexOf(u.Line)]
		w := c.allocPW()
		t.submitSeq++
		w.line, w.data, w.seq = u.Line, u.Data, t.submitSeq
		c.transit.Push(w)
	}
}

// restore empties the controller's tracked writes and rebuilds the
// accepted ones from s, none of them started on a bank. Entries are
// rebuilt through the controller's own alloc paths (recycling the live
// ones) so their cached completion thunks bind this controller, never
// the one the checkpoint came from (the cached-thunk rule,
// docs/SNAPSHOT.md).
func (c *Controller) restore(s *ControllerState) {
	for _, w := range c.transit.Live() {
		*w = pendingWrite{}
		c.freePW.Put(w)
	}
	for _, w := range c.pending.Live() {
		*w = pendingWrite{}
		c.freePW.Put(w)
	}
	for _, e := range c.inflight.Live() {
		*e = drainEntry{doneFn: e.doneFn, retryFn: e.retryFn}
		c.freeDE.Put(e)
	}
	c.transit.Clear()
	c.pending.Clear()
	c.inflight.Clear()

	for i := range s.Accepted {
		a := &s.Accepted[i]
		e := c.allocDE()
		e.line, e.old, e.data = a.Line, a.Old, a.Data
		c.inflight.Push(e)
	}
	c.waiting = len(s.Accepted)
	c.stats = s.Stats.clone()
}
