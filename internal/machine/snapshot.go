package machine

import (
	"fmt"

	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// Checkpoint is a crash-cut checkpoint: exactly what a power cut
// preserves and a post-crash query reads. That is the cut cycle, the
// frozen persistent image, and the PM side (pmem.TopologyState): the
// machine-wide stream of unaccepted writes in submission order and
// each controller's accepted-in-flight writes and statistics — the
// inputs of the crash image, recovery, invariant checks and PM.Stats.
// Every post-crash query reads it directly
// (faultinject.CheckpointImage, Mem.Persistent, PMStats). The image is
// a frozen copy-on-write view sharing page storage with the live
// system, but that storage is immutable from the moment of capture
// (the system's next write to a captured page copies it first), so the
// checkpoint shares no MUTABLE storage with its source and may be read
// by any number of goroutines at once.
//
// Everything else — the volatile image, pending simulation events, the
// engine's counters, worker coroutines, cores, persist backends and
// strand structures — is the state a power cut destroys or no
// post-crash query reads, and is not captured. See docs/SNAPSHOT.md for
// the full state-capture contract.
type Checkpoint struct {
	At  sim.Cycle
	Mem *mem.MachineState
	PM  *pmem.TopologyState
}

// Snapshot captures the system's crash-visible state. O(state), not
// O(history) — and for the image O(pages) pointer work, not bytes: it
// freezes into a COW view that copies no page data (the cost is
// deferred to first-write faults on the live system); the controllers
// copy their tracked writes, the rest is counters.
func (s *System) Snapshot() *Checkpoint {
	return &Checkpoint{
		At:  s.Eng.Now(),
		Mem: s.Mem.Snapshot(),
		PM:  s.PM.Snapshot(),
	}
}

// PMStats returns the PM statistics of the captured system at the
// capture cycle: what PM.Stats reports, the controllers merged in index
// order. The result shares no storage with the checkpoint.
func (cp *Checkpoint) PMStats() pmem.Stats {
	var st pmem.Stats
	for i, c := range cp.PM.Ctrls {
		cs := c.Stats
		// Deep-copied as Controller.Stats does: checkpoints are shared
		// across goroutines, and Add adopts the slice it keeps.
		cs.OverflowHighWater = append([]pmem.OverflowSample(nil), cs.OverflowHighWater...)
		if i == 0 {
			st = cs
			continue
		}
		st.Add(cs)
	}
	return st
}

// Restore rewinds the system's crash-visible state to a previously
// captured checkpoint. A restored system answers the post-crash
// queries — faultinject.CrashImage, PM.Snapshot, PM.Stats, the
// persistent image — byte-identically to the original at the capture
// cycle, and is never run: its engine holds no pending event, and its
// cores, backends, caches and volatile image are not restored.
// Production code reads checkpoints directly; Restore is the reference
// the tests and the benchmark hold those reads to. The target must
// have the checkpoint's PM controller count; Restore panics otherwise.
func (s *System) Restore(cp *Checkpoint) {
	if len(cp.PM.Ctrls) != s.PM.NumControllers() {
		panic(fmt.Sprintf("machine: Restore checkpoint (%d PM controllers) into mismatched system (%d)",
			len(cp.PM.Ctrls), s.PM.NumControllers()))
	}
	s.Eng.Restore(cp.At)
	s.Mem.Restore(cp.Mem)
	s.PM.Restore(cp.PM)
}
