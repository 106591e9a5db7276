package sim

// Coroutine bridges a goroutine into the discrete-event engine so that a
// simulated hardware thread can be written as straight-line Go code.
//
// The contract: exactly one goroutine — the host (the Run caller) or one
// coroutine — runs at any instant. Control is a baton passed by direct
// channel handoff, and the baton holder runs the engine's event loop
// itself (Engine.loop): firing a plain event is a function call on the
// holder's stack, and firing a resume event hands the baton to the
// target coroutine with a single channel send before the holder parks.
// A coroutine whose own resume event is the next to fire simply returns
// from Yield — zero channel operations. This inversion halves the
// per-switch cost of the classic design (a dedicated engine goroutine
// doing a send-then-receive round trip per resume) without touching the
// schedule: the baton's path is a pure function of the (cycle, seq)
// event order, so simulations remain bit-reproducible.
//
// The host regains the baton when the run terminates (Stop, cond,
// drained queue, or cycle limit). A coroutine runs only during a Run,
// started and woken by resume events (Engine.ScheduleResume).
type Coroutine struct {
	eng *Engine
	// ch is this coroutine's baton slot: it parks by receiving on ch
	// and runs while it holds the baton. Unbuffered, so every send is
	// a direct handoff to the one parked receiver.
	ch      chan struct{}
	done    bool
	aborted bool
	// hasBaton records whether this coroutine's goroutine holds the
	// baton; the death handler uses it to decide whether it must keep
	// the event loop alive on the way out.
	hasBaton bool
	// abortSync is set by Abort just before it wakes the parked
	// coroutine: the unwinding goroutine then acknowledges on
	// eng.abortAck instead of passing the baton on.
	abortSync bool
}

// abortSentinel is the panic value used to unwind an aborted coroutine's
// goroutine so it does not leak (e.g. when a simulated crash abandons
// the machine mid-run).
type abortSentinel struct{}

// NewCoroutine starts body on its own goroutine, paused: it does not run
// until its first scheduled resume. Inside body, use co.WaitCycles /
// co.Yield to give up control.
func NewCoroutine(eng *Engine, body func(co *Coroutine)) *Coroutine {
	co := &Coroutine{
		eng: eng,
		ch:  make(chan struct{}),
	}
	go func() {
		e := eng
		defer func() {
			r := recover()
			if r != nil {
				if _, ok := r.(abortSentinel); !ok {
					// A real panic on this stack (a bug, or an armed
					// write budget tripping inside an event). Transfer
					// it to the host so it surfaces from Run, exactly
					// as when the host fires every event itself.
					if !co.hasBaton {
						panic(r)
					}
					co.done = true
					e.pendingPanic = r
					e.handToHost(co)
					return
				}
			}
			co.done = true
			switch {
			case co.abortSync:
				// Abort is blocked waiting for this unwind.
				e.abortAck <- struct{}{}
			case co.hasBaton:
				// Died holding the baton: keep the event loop alive on
				// this dying stack until the baton moves on.
				defer func() {
					if r := recover(); r != nil {
						e.pendingPanic = r
						e.handToHost(co)
					}
				}()
				e.loop(co, true)
			}
		}()
		e.park(co)
		body(co)
	}()
	return co
}

// Abort unwinds a parked coroutine so its goroutine exits; used when a
// simulated crash abandons the machine. If the coroutine being aborted
// is the current baton holder (a crash event abandoning its own
// machine), it is only marked: it unwinds at its next baton checkpoint.
// No-op if already done.
func (co *Coroutine) Abort() {
	if co.done {
		return
	}
	co.aborted = true
	e := co.eng
	e.stats.CoroutineSwitches++
	if e.current == co {
		return
	}
	co.abortSync = true
	co.ch <- struct{}{}
	<-e.abortAck
}

// Done reports whether the coroutine's body has returned.
func (co *Coroutine) Done() bool { return co.done }

// Yield gives up the baton until the coroutine's next resume event.
// During a run the yielding goroutine keeps driving the event loop
// itself; it only parks when the baton must move to another coroutine.
// Must be called from within the coroutine body.
func (co *Coroutine) Yield() {
	co.eng.loop(co, false)
	if co.aborted {
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
