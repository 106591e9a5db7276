package faultinject

// InjectorSnapshot captures an injector mid-stream: the splitmix64
// primary-stream position and the fault counters accumulated so far.
// Restoring it onto a fresh Injector (built with New from the same
// Plan) reproduces the crash image the original would draw next, which
// is what keeps a crash image drawn from a checkpoint byte-identical to
// one drawn on the original run (docs/SNAPSHOT.md). The per-controller
// media-fault streams are not captured: they serve only the run, and
// crash images never draw from them.
type InjectorSnapshot struct {
	State uint64
	Stats Stats
}

// Snapshot captures the injector's primary-stream position and counters.
func (in *Injector) Snapshot() InjectorSnapshot {
	return InjectorSnapshot{State: in.state, Stats: in.stats}
}

// Restore rewinds the injector to a previously captured position. The
// plan is not part of the snapshot: the caller re-creates the injector
// from the run's Plan and then restores the stream position onto it.
func (in *Injector) Restore(s InjectorSnapshot) {
	in.state = s.State
	in.stats = s.Stats
}
