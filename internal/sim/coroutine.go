//go:build go1.23

package sim

import "iter"

// Coroutine runs a simulated hardware thread as straight-line Go code
// on a runtime coroutine (iter.Pull), so that it can suspend itself in
// the middle of its body and be resumed by the engine's events.
//
// The contract: exactly one stack — the host's (the Run caller) or one
// coroutine's — runs at any instant, and that stack runs the engine's
// event loop itself (Engine.loop). Firing a plain event is a function
// call on the running stack. When the running coroutine's own resume
// event is the next to fire, Yield simply returns: no switch at all.
// When another coroutine's resume fires, the running coroutine yields
// that target to the host, which resumes it through its next function:
// a direct runtime switch that never enters the scheduler. The path of
// control is a pure function of the (cycle, seq) event order, so
// simulations remain bit-reproducible.
//
// A coroutine runs only during a Run, started and woken by resume
// events (Engine.ScheduleResume). When a run ends on a coroutine's
// stack, the coroutine yields to the host and stays suspended until a
// later run fires its next resume.
type Coroutine struct {
	eng *Engine
	// next resumes the coroutine until it yields the coroutine to run
	// next (nil when the run has ended); ok is false once its body has
	// returned or unwound. stop unwinds a suspended coroutine.
	next  func() (to *Coroutine, ok bool)
	stop  func()
	yield func(to *Coroutine) bool
	done  bool
	// aborted marks a coroutine aborted by an event on its own stack;
	// it unwinds at the event loop's next check.
	aborted bool
}

// abortSentinel is the panic value that unwinds an aborted coroutine's
// body, so deferred calls run and its goroutine exits (e.g. when a
// simulated crash abandons the machine mid-run).
type abortSentinel struct{}

// NewCoroutine creates a coroutine running body, paused: it does not
// run until its first scheduled resume. Inside body, use co.WaitCycles
// / co.Yield to give up control.
func NewCoroutine(eng *Engine, body func(co *Coroutine)) *Coroutine {
	co := &Coroutine{eng: eng}
	co.next, co.stop = iter.Pull(func(yield func(*Coroutine) bool) {
		co.yield = yield
		defer func() {
			co.done = true
			if r := recover(); r != nil {
				if _, ok := r.(abortSentinel); !ok {
					// A real panic on this stack: next re-raises it on
					// the host, so it surfaces from Run.
					panic(r)
				}
			}
		}()
		body(co)
	})
	return co
}

// Abort unwinds the coroutine so its goroutine exits; used when a
// simulated crash abandons the machine. A suspended coroutine unwinds
// before Abort returns. The coroutine whose stack is running the event
// (a crash event abandoning its own machine) is only marked: it unwinds
// at the event loop's next check, before any other event fires. No-op
// if already done.
func (co *Coroutine) Abort() {
	if co.done {
		return
	}
	co.aborted = true
	co.eng.stats.CoroutineSwitches++
	if co.eng.current == co {
		return
	}
	co.stop()
	co.done = true
}

// Done reports whether the coroutine's body has returned.
func (co *Coroutine) Done() bool { return co.done }

// Yield gives up control until the coroutine's next resume event. The
// yielding coroutine keeps running the event loop on its own stack; it
// suspends only when another coroutine's resume fires or the run ends.
// Must be called from within the coroutine body.
func (co *Coroutine) Yield() {
	to := co.eng.loop(co)
	if to != co && !co.yield(to) {
		panic(abortSentinel{})
	}
}

// WaitCycles suspends the coroutine for d simulated cycles: it schedules
// its own resume event and yields.
func (co *Coroutine) WaitCycles(d Cycle) {
	co.eng.ScheduleResume(d, co)
	co.Yield()
}

// Waiter is a one-shot wakeup list: coroutines park on it and are resumed
// (in FIFO order, deterministically) when Broadcast fires. It models
// hardware wakeup signals such as "queue entry freed" or "ack received".
// A parked coroutine costs nothing per cycle: no events are scheduled
// until Broadcast wakes it.
type Waiter struct {
	eng     *Engine
	parked  []*Coroutine
	signals int
}

// NewWaiter returns a Waiter bound to eng.
func NewWaiter(eng *Engine) *Waiter { return &Waiter{eng: eng} }

// Park suspends co until the next Broadcast.
func (w *Waiter) Park(co *Coroutine) {
	w.parked = append(w.parked, co)
	co.Yield()
}

// Broadcast wakes every parked coroutine at the current cycle (as a
// zero-delay resume event, preserving deterministic FIFO ordering).
// No allocation per woken coroutine.
func (w *Waiter) Broadcast() {
	if len(w.parked) == 0 {
		return
	}
	woken := w.parked
	w.parked = w.parked[:0]
	w.signals++
	for i, co := range woken {
		w.eng.ScheduleResume(0, co)
		woken[i] = nil
	}
}

// ParkedCount reports how many coroutines are currently parked.
func (w *Waiter) ParkedCount() int { return len(w.parked) }

// Broadcasts reports how many times Broadcast woke at least one coroutine.
func (w *Waiter) Broadcasts() int { return w.signals }
