package sim

// EngineState is a checkpoint of the engine's control state: the
// (cycle, seq) clock pair that orders every event, the stop flag, the
// watchdog arming, and the run counters.
//
// Pending events are deliberately NOT part of the state. An event is a
// closure over live goroutine state (coroutine resumes, completion
// thunks); capturing it would alias the snapshotted system. Under the
// state-capture contract (docs/SNAPSHOT.md) a checkpoint taken at a
// crash cut models the power failure destroying that in-flight
// micro-architectural future, so the event queue is defined to be
// empty after Restore.
type EngineState struct {
	Now         Cycle
	Seq         uint64
	Stopped     bool
	EventBudget uint64
	BudgetHit   bool
	Stats       Stats
}

// Snapshot captures the engine's control state. O(1): no event is
// copied (see EngineState).
func (e *Engine) Snapshot() EngineState {
	return EngineState{
		Now:         e.now,
		Seq:         e.seq,
		Stopped:     e.stopped,
		EventBudget: e.eventBudget,
		BudgetHit:   e.budgetHit,
		Stats:       e.stats,
	}
}

// Restore rewinds the engine to a previously captured state. Pending
// events are dropped by popping them in O(pending) — storage is kept,
// event closures are released — before the clock moves, since the wheel
// locates its events relative to the current cycle. The clock then
// resumes at the captured (cycle, seq) pair so events scheduled after
// Restore extend the captured total order exactly as they would have on
// the original system.
func (e *Engine) Restore(s EngineState) {
	for e.Pending() != 0 {
		e.popNext(0)
	}
	e.now = s.Now
	e.seq = s.Seq
	e.stopped = s.Stopped
	e.eventBudget = s.EventBudget
	e.budgetHit = s.BudgetHit
	e.stats = s.Stats
}
