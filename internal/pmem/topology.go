package pmem

import (
	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// Topology shards the machine's persistence boundary across
// config.PMControllers address-interleaved controllers. It is the thin
// routing layer the rest of the machine talks to instead of a concrete
// Controller: a line maps to exactly one controller via the fixed
// interleave
//
//	index = (line >> mem.LineShift) & (PMControllers - 1)
//
// so consecutive cache lines stripe across controllers and all traffic
// for one line — submissions, drains, reads, fault hooks — stays on one
// controller, preserving the per-line FIFO the crash model relies on.
// The controller count must be a power of two (config.Validate enforces
// it); the mask interleave is then a pure function of the address, with
// no state and no draw, so routing never perturbs determinism.
//
// Submission stamps come from one topology-wide counter shared by every
// controller (Controller.seqSrc), giving in-flight writes a global
// submission order even though they queue on different controllers.
// Every fan-out — stats, snapshots, crash-image construction — iterates
// controllers in index order, the fixed iteration order required by
// docs/DETERMINISM.md.
//
// With a single controller (the default and the paper's configuration)
// the topology is a transparent pass-through: every routed call lands
// on controller 0 and behaves byte-identically to the pre-topology
// machine.
type Topology struct {
	ctrls []*Controller
	mask  uint64
	// submitSeq is the shared submission counter all controllers stamp
	// from (see Controller.seqSrc).
	submitSeq uint64
}

// NewTopology builds cfg.PMControllers controllers (0 means 1) bound to
// the engine and functional machine images, wired to a shared
// submission counter.
func NewTopology(eng *sim.Engine, cfg config.Config, machine *mem.Machine) *Topology {
	n := cfg.PMControllers
	if n == 0 {
		n = 1
	}
	t := &Topology{ctrls: make([]*Controller, n), mask: uint64(n - 1)}
	for i := range t.ctrls {
		c := New(eng, cfg, machine)
		c.seqSrc = &t.submitSeq
		t.ctrls[i] = c
	}
	return t
}

// NumControllers reports the controller count.
func (t *Topology) NumControllers() int { return len(t.ctrls) }

// IndexOf maps a line address to its controller index via the fixed
// line interleave. Volatile lines route through the same function so
// DRAM traffic and volatile-flush acks also have a deterministic home.
func (t *Topology) IndexOf(line mem.Addr) int {
	return int((uint64(line) >> mem.LineShift) & t.mask)
}

// Controller returns controller i.
func (t *Topology) Controller(i int) *Controller { return t.ctrls[i] }

// Controllers returns the controllers in index order — the canonical
// iteration order for any per-controller fan-out. Callers must not
// mutate the slice.
func (t *Topology) Controllers() []*Controller { return t.ctrls }

// SubmitPMWrite routes the line write to its controller.
func (t *Topology) SubmitPMWrite(line mem.Addr, data [mem.LineSize]byte, ack WriteAck) {
	t.ctrls[t.IndexOf(line)].SubmitPMWrite(line, data, ack)
}

// SubmitRead routes the line fill request to its controller.
func (t *Topology) SubmitRead(line mem.Addr, done ReadDone) {
	t.ctrls[t.IndexOf(line)].SubmitRead(line, done)
}

// SubmitDRAMWrite routes the volatile write-back to its controller.
func (t *Topology) SubmitDRAMWrite(line mem.Addr) {
	t.ctrls[t.IndexOf(line)].SubmitDRAMWrite(line)
}

// SetFaultHook installs h on every controller (nil removes). Fault
// injection that needs disjoint per-controller draw streams installs
// per-controller hooks via Controllers instead.
func (t *Topology) SetFaultHook(h FaultHook) {
	for _, c := range t.ctrls {
		c.SetFaultHook(h)
	}
}

// Stats aggregates all controllers' statistics in index order: counters
// sum, high-water marks take the maximum across controllers (the
// Stats.Add merge rule).
func (t *Topology) Stats() Stats {
	st := t.ctrls[0].Stats()
	for _, c := range t.ctrls[1:] {
		st.Add(c.Stats())
	}
	return st
}

// PerController snapshots each controller's statistics in index order.
func (t *Topology) PerController() []Stats {
	out := make([]Stats, len(t.ctrls))
	for i, c := range t.ctrls {
		out[i] = c.Stats()
	}
	return out
}

// UnacceptedWrites merges every controller's submitted-but-unaccepted
// writes into one machine-wide view in global submission order (the
// shared stamp makes the merge well defined). Note the global FIFO
// landing property holds per controller only: independent controllers
// accept concurrently, so a power cut truncates each controller's
// stream at its own point (see faultinject).
func (t *Topology) UnacceptedWrites() []LineWrite {
	if len(t.ctrls) == 1 {
		return t.ctrls[0].UnacceptedWrites()
	}
	var all []*pendingWrite
	for _, c := range t.ctrls {
		all = append(all, c.unaccepted()...)
	}
	sortBySeq(all)
	out := make([]LineWrite, len(all))
	for i, w := range all {
		out[i] = LineWrite{Line: w.line, Data: w.data}
	}
	return out
}

// AcceptedInFlight concatenates each controller's accepted-but-
// undrained writes in controller index order (acceptance order within
// each controller; acceptances on independent controllers have no
// cross-controller order).
func (t *Topology) AcceptedInFlight() []LineWrite {
	if len(t.ctrls) == 1 {
		return t.ctrls[0].AcceptedInFlight()
	}
	var out []LineWrite
	for _, c := range t.ctrls {
		out = append(out, c.AcceptedInFlight()...)
	}
	return out
}

// Snapshot captures every controller's state in index order (pure data,
// sharing nothing with the topology; docs/SNAPSHOT.md capture table).
func (t *Topology) Snapshot() []*ControllerState {
	out := make([]*ControllerState, len(t.ctrls))
	for i, c := range t.ctrls {
		out[i] = c.Snapshot()
	}
	return out
}

// Restore rewinds every controller from states (captured from an
// identically configured topology).
func (t *Topology) Restore(states []*ControllerState) {
	if len(states) != len(t.ctrls) {
		panic("pmem: Topology.Restore with mismatched controller count")
	}
	for i, c := range t.ctrls {
		c.Restore(states[i])
	}
}
