package faultinject

// InjectorSnapshot captures an injector mid-stream: the splitmix64
// generator position(s) and the fault counters accumulated so far.
// Restoring it onto a fresh Injector (built with New from the same
// Plan) reproduces the remaining draw sequence exactly, which is what
// keeps a crash image drawn from a checkpoint byte-identical to one
// drawn on the original run (docs/SNAPSHOT.md).
type InjectorSnapshot struct {
	State uint64
	Stats Stats
	// CtrlStates holds the per-controller stream positions for
	// controllers past the first (index 0 unused, mirroring
	// Injector.ctrlStates). Nil on single-controller runs, which keeps
	// single-controller snapshots identical to the pre-topology format.
	CtrlStates []uint64
}

// Snapshot captures the injector's generator state and counters.
func (in *Injector) Snapshot() InjectorSnapshot {
	s := InjectorSnapshot{State: in.state, Stats: in.stats}
	if len(in.ctrlStates) > 0 {
		s.CtrlStates = append([]uint64(nil), in.ctrlStates...)
	}
	return s
}

// Restore rewinds the injector to a previously captured position. The
// plan is not part of the snapshot: the caller re-creates the injector
// from the run's Plan and then restores the stream positions onto it.
func (in *Injector) Restore(s InjectorSnapshot) {
	in.state = s.State
	in.stats = s.Stats
	in.ctrlStates = append([]uint64(nil), s.CtrlStates...)
}
