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
// controller (submitSeq), giving in-flight writes a global
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
	cfg   config.Config
	// machine is the functional images acceptance and PersistVisible
	// write; log, when non-nil, is the Log every controller records to
	// (see Record).
	machine *mem.Machine
	log     *Log
	// submitSeq is the shared submission counter all controllers stamp
	// from.
	submitSeq uint64
	// atVisibility is the persistence point (see NewTopology): when
	// set, acceptance stores nothing.
	atVisibility bool
}

// NewTopology builds cfg.PMControllers controllers (0 means 1) bound to
// the engine and functional machine images, wired to a shared
// submission counter. atVisibility sets the persistence point for the
// machine's lifetime: controller acceptance (ADR) when false, store
// visibility through PersistVisible (eADR, whose caches are inside the
// persistence domain) when true. Then acceptance stores nothing: a
// line write's data was read when the cache submitted it and can be
// older than words persisted at visibility since.
func NewTopology(eng *sim.Engine, cfg config.Config, machine *mem.Machine, atVisibility bool) *Topology {
	n := max(cfg.PMControllers, 1)
	t := &Topology{ctrls: make([]*Controller, n), mask: uint64(n - 1), eng: eng, cfg: cfg, machine: machine, atVisibility: atVisibility}
	for i := range t.ctrls {
		t.ctrls[i] = newController(t, i)
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

// Stats aggregates all controllers' statistics (see merged).
func (t *Topology) Stats() Stats { return merged(t.PerController()) }

// merged folds per-controller statistics in index order by the
// Stats.Add rule — counters sum, high-water marks take the maximum
// across controllers — into a result sharing no storage with them.
func merged(per []Stats) Stats {
	st := per[0]
	for _, o := range per[1:] {
		st.Add(o)
	}
	return st.clone()
}

// PerController snapshots each controller's statistics in index order.
func (t *Topology) PerController() []Stats {
	out := make([]Stats, len(t.ctrls))
	for i, c := range t.ctrls {
		out[i] = c.Stats()
	}
	return out
}
