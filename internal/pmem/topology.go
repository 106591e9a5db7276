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
// submission order even though they queue on different controllers:
// Snapshot merges them into the one stream a power cut truncates.
// Every fan-out — stats, snapshots — iterates controllers in index
// order, the fixed iteration order required by docs/DETERMINISM.md.
//
// With a single controller (the default and the paper's configuration)
// the topology is a transparent pass-through: every routed call lands
// on controller 0 and behaves byte-identically to the pre-topology
// machine.
type Topology struct {
	ctrls []*Controller
	mask  uint64
	eng   *sim.Engine
	// machine is the functional images PersistVisible writes; log, when
	// non-nil, is the Log every controller records to (see Record).
	machine *mem.Machine
	log     *Log
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
	t := &Topology{ctrls: make([]*Controller, n), mask: uint64(n - 1), eng: eng, machine: machine}
	for i := range t.ctrls {
		c := New(eng, cfg, machine)
		c.seqSrc = &t.submitSeq
		c.index = i
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
