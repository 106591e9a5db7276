// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances an integer cycle clock (2 GHz by convention: one
// cycle = 0.5 ns) and fires scheduled events in (cycle, sequence) order,
// so simulations are bit-reproducible across runs. Simulated hardware
// threads are runtime coroutines (iter.Pull) that the event loop
// resumes one at a time (see Coroutine), which preserves determinism:
// exactly one stack — the Run caller's or a coroutine's — runs at any
// instant, and control passes between them by direct runtime switches,
// never through the scheduler.
//
// The event core is allocation-free in steady state. Events are value
// entries in a hashed timing wheel: one FIFO per cycle slot, drawn from a
// freelisted pool, so scheduling and popping are O(1) whatever the delay
// up to the wheel's span. The rare event due further ahead (one placed
// with ScheduleAt, or delayed by the span or more) waits in an inline
// 4-ary min-heap instead. The
// ordering contract is exactly (cycle, seq) regardless of which structure
// holds an event; docs/DETERMINISM.md states the contract, and the golden
// digests in internal/harness enforce it.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in CPU cycles.
type Cycle uint64

// ErrBudgetExceeded is the watchdog's typed failure: the engine fired
// more events than SetEventBudget allows and stopped itself instead of
// spinning forever. A cycle limit (Run's limit argument) cannot catch a
// same-cycle event livelock — a self-perpetuating burst of zero-delay
// events never advances the clock — so long-running sweeps and the
// fuzz harness arm the event budget as their hang backstop. Match with
// errors.Is.
var ErrBudgetExceeded = errors.New("sim: event budget exceeded (watchdog)")

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// eventEntry is one scheduled event, stored by value: scheduling does
// not allocate once the wheel's pool and the far heap have grown to the
// simulation's working depth. Exactly one of fn and co is set: fn for a
// plain callback, co for a coroutine resumption (the switch the event
// loop performs itself; see Coroutine).
type eventEntry struct {
	at  Cycle
	seq uint64
	fn  Event
	co  *Coroutine
}

// wheelSpan is the timing wheel's size in cycles: an event due fewer
// than wheelSpan cycles ahead goes to the wheel, a later one to the far
// heap. The paper's Table I latencies bound almost every delay the
// simulator schedules, the slowest being the 1000-cycle PM media write.
// On the Fig 7/8 grid about half of all delays are 0 and a fifth are 1;
// about one in 2000 lies between 1024 and 2047 cycles, and none reaches
// 2048 (FastPathHits equals EventsScheduled there). 2048 is thus the
// smallest power of two that keeps every grid event in the wheel: only
// events placed far ahead with ScheduleAt (System.RunAt) and delays of
// 2048 cycles or more take the heap. The slot array is 16 KiB.
const (
	wheelSpan  = 2048
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// wheelNode is one pooled wheel entry. next links its slot's FIFO by
// pool index; 0 ends the list (pool[0] is a sentinel).
type wheelNode struct {
	ev   eventEntry
	next int32
}

// wheelSlot is one slot's FIFO as pool indices; 0 means empty.
type wheelSlot struct{ head, tail int32 }

// before reports whether a fires before b under the (cycle, seq) total
// order.
func (a *eventEntry) before(b *eventEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Stats counts engine-level activity. All counters are deterministic
// functions of the event order, so they may be compared across runs
// and folded into sweep results (sweep.CellMetrics).
type Stats struct {
	// EventsScheduled and EventsFired count Schedule calls and event
	// callbacks run.
	EventsScheduled uint64 `json:"events_scheduled"`
	EventsFired     uint64 `json:"events_fired"`
	// FastPathHits counts schedules that took the timing wheel (an O(1)
	// append, no sift) rather than the far heap. On the Fig 7/8 grid
	// that is every schedule.
	FastPathHits uint64 `json:"fast_path_hits"`
	// FreelistHits counts schedules that reused storage: a recycled
	// wheel pool node, or spare capacity of the far heap.
	FreelistHits uint64 `json:"freelist_hits"`
	// PeakHeapDepth is the high-water mark of pending events (wheel plus
	// far heap). The name predates the wheel.
	PeakHeapDepth int `json:"peak_heap_depth"`
	// CoroutineSwitches counts coroutine resumptions delivered: resume
	// events fired on a live coroutine, and Abort unwinds. A pure
	// function of the event order, like every counter here, regardless
	// of which stack runs the loop.
	CoroutineSwitches uint64 `json:"coroutine_switches"`
}

// Add folds other into s: counters sum, PeakHeapDepth takes the
// maximum.
func (s *Stats) Add(other Stats) {
	s.EventsScheduled += other.EventsScheduled
	s.EventsFired += other.EventsFired
	s.FastPathHits += other.FastPathHits
	s.FreelistHits += other.FreelistHits
	if other.PeakHeapDepth > s.PeakHeapDepth {
		s.PeakHeapDepth = other.PeakHeapDepth
	}
	s.CoroutineSwitches += other.CoroutineSwitches
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now Cycle
	seq uint64
	// slots is the timing wheel, allocated by the first Schedule. Every
	// wheel event is due in [now, now+wheelSpan), so slot at&wheelMask
	// holds the events of exactly one cycle, as a FIFO in seq order
	// (seq only grows, and the FIFO is only appended to). Slot now is
	// the same-cycle queue.
	slots *[wheelSpan]wheelSlot
	// occ has bit s set iff slot s is non-empty, and occSum bit w iff
	// occ[w] is non-zero: the next due slot is two TrailingZeros away.
	occ    [wheelWords]uint64
	occSum uint32
	// pool backs the slot FIFOs; free heads the freelist of recycled
	// nodes (0 = empty). wheelLen counts the events in the wheel.
	pool     []wheelNode
	free     int32
	wheelLen int
	// heap holds the far events (scheduled wheelSpan or more cycles
	// ahead) in an inline 4-ary min-heap ordered by (at, seq). They
	// never migrate into the wheel, which would break its seq order;
	// popping compares the wheel head with the heap top instead.
	heap []eventEntry
	// stopped is set by Stop; Run returns promptly once set.
	stopped bool
	// eventBudget, when non-zero, bounds EventsFired; crossing it sets
	// budgetHit and stops the engine (the watchdog).
	eventBudget uint64
	budgetHit   bool
	stats       Stats
	// Run state (see Coroutine): the running run's termination
	// condition and the last cycle it may fire events at, and the
	// coroutine the host has resumed (nil while the host's own stack
	// runs the loop).
	runCond  func() bool
	runLimit Cycle
	current  *Coroutine
}

// NewEngine returns an engine with the clock at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Schedule runs fn after delay cycles. A delay of 0 runs fn later in the
// current cycle, after already-scheduled same-cycle events.
func (e *Engine) Schedule(delay Cycle, fn Event) {
	if fn == nil {
		panic("sim: Schedule called with nil event")
	}
	e.schedule(delay, eventEntry{fn: fn})
}

// ScheduleResume schedules co's resumption after delay cycles, through
// the same (cycle, seq) queue as Schedule — resume events fire in
// exactly the order a Schedule'd callback would. The event loop
// delivers the resumption itself: nothing when co is running the loop,
// else a switch to co through the host.
func (e *Engine) ScheduleResume(delay Cycle, co *Coroutine) {
	if co == nil {
		panic("sim: ScheduleResume called with nil coroutine")
	}
	e.schedule(delay, eventEntry{co: co})
}

func (e *Engine) schedule(delay Cycle, entry eventEntry) {
	e.seq++
	e.stats.EventsScheduled++
	entry.at = e.now + delay
	entry.seq = e.seq
	if delay < wheelSpan {
		e.wheelPush(entry)
	} else {
		if len(e.heap) < cap(e.heap) {
			e.stats.FreelistHits++
		}
		e.heapPush(entry)
	}
	if depth := e.Pending(); depth > e.stats.PeakHeapDepth {
		e.stats.PeakHeapDepth = depth
	}
}

// wheelPush appends entry to the FIFO of its cycle's slot.
func (e *Engine) wheelPush(entry eventEntry) {
	if e.slots == nil {
		e.slots = new([wheelSpan]wheelSlot)
		e.pool = make([]wheelNode, 1) // pool[0] is the sentinel
	}
	n := e.free
	if n != 0 {
		e.free = e.pool[n].next
		e.pool[n] = wheelNode{ev: entry}
		e.stats.FreelistHits++
	} else {
		n = int32(len(e.pool))
		e.pool = append(e.pool, wheelNode{ev: entry})
	}
	s := int(entry.at & wheelMask)
	sl := &e.slots[s]
	if sl.tail == 0 {
		sl.head = n
		e.occ[s>>6] |= 1 << (s & 63)
		e.occSum |= 1 << (s >> 6)
	} else {
		e.pool[sl.tail].next = n
	}
	sl.tail = n
	e.wheelLen++
	e.stats.FastPathHits++
}

// wheelFirst returns the slot holding the earliest wheel event; the
// wheel must not be empty. Every wheel event is due in
// [now, now+wheelSpan), so scanning the slots cyclically from now's slot
// visits them in cycle order.
func (e *Engine) wheelFirst() int {
	p := int(e.now & wheelMask)
	w := p >> 6
	if m := e.occ[w] >> (p & 63); m != 0 {
		return p + bits.TrailingZeros64(m)
	}
	if rest := e.occSum >> uint(w+1); rest != 0 {
		w += 1 + bits.TrailingZeros32(rest)
	} else {
		// Wrapped around: the lowest non-empty word, possibly w itself
		// (its slots before p).
		w = bits.TrailingZeros32(e.occSum)
	}
	return w<<6 + bits.TrailingZeros64(e.occ[w])
}

// ScheduleAt runs fn at the absolute cycle at, which must not be in the
// past.
func (e *Engine) ScheduleAt(at Cycle, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%d) in the past (now=%d)", at, e.now))
	}
	e.Schedule(at-e.now, fn)
}

// Restore drops every pending event and moves the clock to now, earlier
// or later. A restored system moves to its checkpoint's cut, where the
// power failure has destroyed the in-flight micro-architectural future
// (docs/SNAPSHOT.md), and Reset drops what a crash-cut walk left
// pending. Events are dropped by
// popping them in O(pending), which keeps the storage and releases the
// closures, before the clock moves, since the wheel locates its events
// relative to the current cycle. The seq counter, the stop flag, the
// watchdog and the counters are left as they are.
func (e *Engine) Restore(now Cycle) {
	for e.Pending() != 0 {
		e.popNext(^Cycle(0))
	}
	e.now = now
}

// Reset returns the engine to NewEngine's state — clock, sequence,
// flags, watchdog and counters at zero, nothing pending — but keeps its
// storage, so an engine reused for many short simulations allocates its
// timing wheel once.
func (e *Engine) Reset() {
	e.Restore(0)
	*e = Engine{slots: e.slots, pool: e.pool, free: e.free, heap: e.heap}
}

// Step fires the earliest pending event if it is due at or before
// cycle limit, and reports whether it did. It drives a simulation whose
// events are all plain callbacks (a persistence domain alone, with no
// coroutine) one event at a time; stop flags and the watchdog are not
// consulted.
func (e *Engine) Step(limit Cycle) bool {
	ev, ok := e.popNext(limit)
	if !ok {
		return false
	}
	if ev.co != nil {
		panic("sim: Step fired a coroutine resumption")
	}
	e.fired(&ev)
	ev.fn()
	return true
}

// Advance fires, in (cycle, seq) order, every pending event due before
// cycle at, then moves the clock to at. Later events stay pending. Like
// Step, it serves simulations of plain callbacks alone.
func (e *Engine) Advance(at Cycle) {
	if at < e.now {
		panic(fmt.Sprintf("sim: Advance(%d) into the past (now=%d)", at, e.now))
	}
	for at > 0 && e.Step(at-1) {
	}
	e.now = at
}

// Stop makes Run return after the event currently executing (if any)
// completes.
func (e *Engine) Stop() { e.stopped = true }

// SetEventBudget arms the watchdog: once n events have fired in total
// the engine stops itself and BudgetExceeded reports true. n = 0
// disarms. The budget is a deterministic function of the event order,
// so the same simulation trips it at exactly the same event on every
// run (docs/DETERMINISM.md).
func (e *Engine) SetEventBudget(n uint64) {
	e.eventBudget = n
	if n == 0 || e.stats.EventsFired < n {
		e.budgetHit = false
	}
}

// EventBudget returns the armed budget (0 = disarmed).
func (e *Engine) EventBudget() uint64 { return e.eventBudget }

// BudgetExceeded reports whether the watchdog stopped the engine.
func (e *Engine) BudgetExceeded() bool { return e.budgetHit }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.wheelLen + len(e.heap) }

// popNext removes and returns the earliest pending event under the
// (cycle, seq) order, unless it is due after cycle limit. ok is false
// when no event is due: none is pending, or the earliest is late and
// stays queued.
func (e *Engine) popNext(limit Cycle) (ev eventEntry, ok bool) {
	var head *wheelNode
	slot := 0
	if e.wheelLen != 0 {
		slot = e.wheelFirst()
		head = &e.pool[e.slots[slot].head]
	}
	if len(e.heap) != 0 && (head == nil || e.heap[0].before(&head.ev)) {
		if e.heap[0].at > limit {
			return eventEntry{}, false
		}
		return e.heapPop(), true
	}
	if head == nil || head.ev.at > limit {
		return eventEntry{}, false
	}
	ev = head.ev
	sl := &e.slots[slot]
	n := sl.head
	if sl.head = head.next; sl.head == 0 {
		sl.tail = 0
		e.occ[slot>>6] &^= 1 << (slot & 63)
		if e.occ[slot>>6] == 0 {
			e.occSum &^= 1 << (slot >> 6)
		}
	}
	*head = wheelNode{next: e.free}
	e.free = n
	e.wheelLen--
	return ev, true
}

// fired advances the clock to ev's cycle and applies the watchdog. The
// caller then runs the event (callback or resumption).
func (e *Engine) fired(ev *eventEntry) {
	e.now = ev.at
	e.stats.EventsFired++
	if e.eventBudget != 0 && e.stats.EventsFired >= e.eventBudget {
		// Watchdog: the budget-crossing event still fires, but stopped
		// is set first, so even if its callback perpetuates a
		// same-cycle livelock by scheduling more zero-delay events,
		// the loop's next termination check exits.
		e.budgetHit = true
		e.stopped = true
	}
}

// Run fires events until none remain, Stop is called, or the clock would
// pass limit (limit 0 means no limit; the clock then rests at limit, or
// stays put if it is already beyond it). It returns the cycle at which
// it stopped.
//
// Run's caller is the host of the coroutines (see Coroutine): it runs
// the event loop on its own stack and resumes each coroutine whose
// resume event fires, until the run ends. A panic on a coroutine's
// stack surfaces from Run.
func (e *Engine) Run(limit Cycle) Cycle { return e.run(nil, limit) }

// RunUntil fires events while cond returns false, subject to the same
// termination rules as Run.
func (e *Engine) RunUntil(cond func() bool, limit Cycle) Cycle {
	return e.run(cond, limit)
}

func (e *Engine) run(cond func() bool, limit Cycle) Cycle {
	e.runCond = cond
	e.runLimit = limit
	if limit == 0 {
		e.runLimit = ^Cycle(0)
	}
	co := e.loop(nil)
	for co != nil {
		co = e.resume(co)
	}
	e.runCond = nil
	e.runLimit = 0
	return e.now
}

// resume switches to co, whose resume event has fired, and runs it
// until it switches back. It returns the coroutine to resume next, or
// nil once the run has ended. A coroutine whose body returned or
// unwound leaves the loop to the host.
func (e *Engine) resume(co *Coroutine) *Coroutine {
	e.current = co
	to, ok := co.next()
	e.current = nil
	if !ok {
		return e.loop(nil)
	}
	return to
}

// loop fires events on the running stack: the host's when g is nil,
// else coroutine g's. Plain events are calls on that stack. It returns
// the first live coroutine whose resume event fires — g itself for a
// self-resume, which switches nothing — or nil once the run has ended
// (Stop, cond, drained queue, or cycle limit).
func (e *Engine) loop(g *Coroutine) *Coroutine {
	for {
		if g != nil && g.aborted {
			// An event fired on this stack aborted g (a crash event
			// abandoning its own machine): unwind g before any other
			// event fires.
			panic(abortSentinel{})
		}
		if e.stopped || (e.runCond != nil && e.runCond()) {
			return nil
		}
		ev, ok := e.popNext(e.runLimit)
		if !ok {
			if e.runLimit > e.now && e.Pending() != 0 {
				// The next event lies beyond the limit: rest the clock
				// there. It never runs backwards, which keeps every
				// wheel event within a span of now.
				e.now = e.runLimit
			}
			return nil
		}
		e.fired(&ev)
		if ev.co == nil {
			ev.fn()
			continue
		}
		if ev.co.done {
			continue
		}
		e.stats.CoroutineSwitches++
		return ev.co
	}
}

// --- far events: inline 4-ary min-heap ---
//
// A 4-ary heap halves the tree depth of a binary heap, trading slightly
// wider sift-down scans for fewer cache-missing levels — the standard
// layout for simulator event queues. Entries are values; the backing
// array only ever grows, so steady-state pushes allocate nothing.

func (e *Engine) heapPush(entry eventEntry) {
	e.heap = append(e.heap, entry)
	// Sift up.
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) heapPop() eventEntry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = eventEntry{}
	e.heap = h[:n]
	h = e.heap
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
