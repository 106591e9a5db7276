package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// stamp identifies a scheduled event by its target cycle and a
// test-side submission counter, which orders like the engine's seq.
type stamp struct {
	at  Cycle
	seq uint64
}

func (a stamp) before(b stamp) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// orderChecker is the reference model of the (cycle, seq) contract:
// every event that fires must be the least pending stamp, at its own
// cycle. Schedules go through the checker so it sees every event.
type orderChecker struct {
	t       testing.TB
	e       *Engine
	pending []stamp
	seq     uint64
	fired   int
}

func newOrderChecker(t testing.TB) *orderChecker {
	return &orderChecker{t: t, e: NewEngine()}
}

// schedule schedules an event d cycles ahead; then, if non-nil, runs
// when it fires.
func (c *orderChecker) schedule(d Cycle, then func()) {
	c.seq++
	s := stamp{at: c.e.Now() + d, seq: c.seq}
	c.pending = append(c.pending, s)
	c.e.Schedule(d, func() {
		c.fire(s)
		if then != nil {
			then()
		}
	})
}

func (c *orderChecker) fire(s stamp) {
	c.t.Helper()
	least := 0
	for i, p := range c.pending {
		if p.before(c.pending[least]) {
			least = i
		}
	}
	if len(c.pending) == 0 {
		c.t.Fatalf("event %+v fired; the reference holds none", s)
	}
	if c.pending[least] != s {
		c.t.Fatalf("event %+v fired; the least pending event is %+v", s, c.pending[least])
	}
	if now := c.e.Now(); now != s.at {
		c.t.Fatalf("event %+v fired at cycle %d", s, now)
	}
	c.pending = append(c.pending[:least], c.pending[least+1:]...)
	c.fired++
}

// run runs the engine to limit and checks what stays queued: nothing
// without a limit, only events due after it with one, and the clock
// resting at the limit when something stays behind it.
func (c *orderChecker) run(limit Cycle) {
	c.t.Helper()
	start := c.e.Now()
	end := c.e.Run(limit)
	if got := c.e.Pending(); got != len(c.pending) {
		c.t.Fatalf("engine holds %d events, reference %d", got, len(c.pending))
	}
	for _, p := range c.pending {
		if limit == 0 || p.at <= limit {
			c.t.Fatalf("event %+v still pending after Run(%d)", p, limit)
		}
	}
	if len(c.pending) != 0 && limit > start && end != limit {
		c.t.Fatalf("Run(%d) from cycle %d stopped at %d with events pending", limit, start, end)
	}
}

// restore rewinds the engine; the reference drops its pending events,
// as the engine does.
func (c *orderChecker) restore(now Cycle) {
	c.e.Restore(now)
	c.pending = c.pending[:0]
	if c.e.Pending() != 0 {
		c.t.Fatalf("%d events pending after Restore", c.e.Pending())
	}
}

// A far event, scheduled at least a span early so it waits in the heap,
// and a near event scheduled later for the same cycle, which takes the
// wheel: the far event fires first, by seq.
func TestWheelFarEventBeforeLaterNearEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	rec := func(s string) func() { return func() { order = append(order, s) } }
	const at = wheelSpan + 5
	e.Schedule(at, rec("far"))
	e.Schedule(10, func() {
		e.ScheduleAt(at, rec("near"))
		e.ScheduleAt(at-1, rec("earlier"))
		e.ScheduleAt(at+1, rec("later"))
	})
	e.Run(0)
	want := []string{"earlier", "far", "near", "later"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if e.Now() != at+1 {
		t.Errorf("clock %d, want %d", e.Now(), at+1)
	}
}

// Tickers whose periods straddle the span keep the wheel wrapping round
// for several revolutions, with a far event landing in the middle.
func TestWheelWrapAround(t *testing.T) {
	c := newOrderChecker(t)
	const horizon = 5 * wheelSpan
	periods := []Cycle{3, 700, wheelSpan / 2, wheelSpan - 1}
	counts := make([]int, len(periods))
	for i, p := range periods {
		var tick func()
		tick = func() {
			counts[i]++
			if c.e.Now()+p <= horizon {
				c.schedule(p, tick)
			}
		}
		c.schedule(p, tick)
	}
	c.schedule(4*wheelSpan+17, nil)
	c.run(0)
	for i, p := range periods {
		if want := int(horizon / p); counts[i] != want {
			t.Errorf("period %d ticked %d times, want %d", p, counts[i], want)
		}
	}
	if c.e.Now() != horizon { // the wheelSpan/2 ticker's last tick
		t.Errorf("clock %d at the end, want %d", c.e.Now(), horizon)
	}
}

// Run's limit clamp moves the clock without firing anything. Events
// scheduled afterwards, zero-delay ones included, land in the slots of
// the new clock and still order against those already queued.
func TestWheelLimitClampThenZeroDelay(t *testing.T) {
	c := newOrderChecker(t)
	c.schedule(0, nil)
	c.schedule(10, nil)
	c.schedule(3*wheelSpan, nil)
	c.run(5)
	if c.e.Now() != 5 || c.fired != 1 {
		t.Fatalf("clock %d, %d fired after Run(5); want 5, 1", c.e.Now(), c.fired)
	}
	c.schedule(0, nil)
	c.run(wheelSpan + 7) // fires cycles 5 and 10, clamps past them
	if c.e.Now() != wheelSpan+7 {
		t.Fatalf("clock %d after Run(%d)", c.e.Now(), wheelSpan+7)
	}
	c.schedule(0, nil)
	c.schedule(wheelSpan-1, nil)
	c.run(0)
	if c.fired != 6 {
		t.Errorf("%d events fired, want 6", c.fired)
	}
	// A limit already behind the clock leaves it where it is.
	c.schedule(5, nil)
	c.run(1)
	if c.e.Now() != 3*wheelSpan {
		t.Errorf("Run with a past limit moved the clock to %d", c.e.Now())
	}
	c.run(0)
}

// Restore empties the wheel and the far heap and moves the clock back:
// new events fire from the restored cycle.
func TestWheelRestore(t *testing.T) {
	c := newOrderChecker(t)
	c.schedule(3, nil)
	c.run(0)
	at := c.e.Now()
	for _, d := range []Cycle{0, 1, 1, 40, wheelSpan - 1, wheelSpan, 3 * wheelSpan} {
		c.schedule(d, nil)
	}
	c.run(40) // leaves events in the wheel and in the heap
	if c.e.Pending() == 0 {
		t.Fatal("nothing left queued to restore over")
	}
	fired := c.fired
	c.restore(at)
	if c.e.Now() != 3 || c.e.wheelLen != 0 || c.e.occSum != 0 || len(c.e.heap) != 0 {
		t.Fatalf("after Restore: clock %d, wheel %d, occupancy %b, heap %d",
			c.e.Now(), c.e.wheelLen, c.e.occSum, len(c.e.heap))
	}
	for _, sl := range c.e.slots {
		if sl != (wheelSlot{}) {
			t.Fatal("a wheel slot survived Restore")
		}
	}
	c.schedule(0, nil)
	c.schedule(2, nil)
	c.schedule(wheelSpan+1, nil)
	c.run(0)
	if c.fired-fired != 3 || c.e.Now() != 3+wheelSpan+1 {
		t.Errorf("%d fired after Restore, clock %d", c.fired-fired, c.e.Now())
	}
}

// A randomized schedule through both structures must fire in exactly
// (cycle, seq) order — the contract the golden digests enforce at the
// system level, checked here directly against a reference sort. Delays
// cover [0, 3·span]: same-cycle, wheel, wrap-around and far-heap events.
func TestEngineOrderMatchesReferenceSort(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(42))
	var fired []stamp
	var want []stamp
	var seq uint64
	var spawn func(depth int)
	spawn = func(depth int) {
		n := 4 + r.Intn(4)
		for i := 0; i < n; i++ {
			d := Cycle(r.Intn(3))
			if r.Intn(2) == 0 {
				d = Cycle(r.Intn(3*wheelSpan + 1))
			}
			s := stamp{at: e.Now() + d, seq: seq}
			seq++
			want = append(want, s)
			dd := depth
			e.Schedule(d, func() {
				fired = append(fired, s)
				if dd < 3 && r.Intn(3) == 0 {
					spawn(dd + 1)
				}
			})
		}
	}
	for i := 0; i < 8; i++ {
		spawn(0)
	}
	e.Run(0)
	// Reference order: stable sort of the submission log by at (seq is
	// the submission index, so stability gives (at, seq)). Events
	// scheduled from callbacks were appended to want during the run in
	// submission order, so the same rule applies.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, fired[i], want[i])
		}
	}
}

// FuzzEngineOrder decodes bytes into Schedule, ScheduleAt, Run(limit)
// and Restore calls (back to a recorded cycle) and checks every firing
// against the reference model. Each op is two bytes: a kind and an argument.
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 1, 1, 200, 6, 0},                   // same-cycle burst, then drain
		{3, 255, 2, 128, 6, 10, 0, 0, 6, 0},          // far and near events, clamp, zero delay
		{7, 0, 1, 5, 3, 100, 6, 1, 7, 1, 0, 3, 6, 0}, // record, run, restore, resume
		{5, 9, 4, 3, 2, 255, 6, 130, 5, 0, 6, 0},     // nested schedules across the span
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newOrderChecker(t)
		var snap *Cycle
		for i := 0; i+1 < len(data) && i < 256; i += 2 {
			arg := Cycle(data[i+1])
			switch data[i] % 8 {
			case 0:
				c.schedule(arg%4, nil)
			case 1:
				c.schedule(arg, nil)
			case 2:
				c.schedule(wheelSpan-128+arg, nil) // straddles the span
			case 3:
				c.schedule(arg*24, nil) // up to 3·span
			case 4:
				c.seq++
				s := stamp{at: c.e.Now() + 2*wheelSpan + arg, seq: c.seq}
				c.pending = append(c.pending, s)
				c.e.ScheduleAt(s.at, func() { c.fire(s) })
			case 5:
				c.schedule(arg%16, func() {
					c.schedule(0, nil)
					c.schedule(wheelSpan-1-arg, nil)
				})
			case 6:
				c.run(c.e.Now() + arg*16)
			case 7:
				if arg%2 == 0 || snap == nil {
					now := c.e.Now()
					snap = &now
				} else {
					c.restore(*snap)
				}
			}
		}
		c.run(0)
	})
}

// Steady-state scheduling must not allocate: the wheel's pool and the
// far heap recycle their storage and entries are stored by value. That
// holds on the wheel, on the far heap and as the wheel wraps round.
func TestScheduleZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Grow the pool and the heap past the test's working depth.
	for i := 0; i < 256; i++ {
		e.Schedule(Cycle(i%16), fn)
		e.Schedule(wheelSpan+Cycle(i), fn)
	}
	e.Run(0)
	for name, round := range map[string]func(){
		"wheel": func() {
			for i := 0; i < 32; i++ {
				e.Schedule(Cycle(i%4), fn)
			}
		},
		"far heap": func() {
			for i := 0; i < 32; i++ {
				e.Schedule(wheelSpan+Cycle(i*97), fn)
			}
		},
		"wrap-around": func() {
			// Each round moves the clock most of a revolution on.
			for i := 0; i < 32; i++ {
				e.Schedule(wheelSpan-1-Cycle(i*61), fn)
			}
		},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			round()
			e.Run(0)
		})
		if allocs != 0 {
			t.Errorf("steady-state Schedule/Run (%s) allocated %.1f times per round, want 0", name, allocs)
		}
	}
}

// Waiter wakeups must not allocate in steady state: Broadcast schedules
// each parked coroutine's resume event.
func TestWaiterBroadcastZeroAlloc(t *testing.T) {
	e := NewEngine()
	w := NewWaiter(e)
	co := NewCoroutine(e, func(co *Coroutine) {
		for {
			w.Park(co)
		}
	})
	e.ScheduleResume(0, co)
	e.Run(0)
	allocs := testing.AllocsPerRun(100, func() {
		w.Broadcast()
		e.Run(0)
	})
	co.Abort()
	if allocs != 0 {
		t.Errorf("steady-state Park/Broadcast allocated %.1f times per round, want 0", allocs)
	}
}

// Engine counters must reflect actual activity and stay internally
// consistent after a run drains.
func TestEngineStatsCounters(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 10; i++ {
		e.Schedule(0, fn)
		e.Schedule(5, fn)
	}
	e.Schedule(wheelSpan, fn)
	e.Run(0)
	st := e.Stats()
	if st.EventsScheduled != 21 || st.EventsFired != 21 {
		t.Errorf("scheduled/fired = %d/%d, want 21/21", st.EventsScheduled, st.EventsFired)
	}
	if st.FastPathHits != 20 {
		t.Errorf("FastPathHits = %d, want 20 (every schedule but the far one)", st.FastPathHits)
	}
	if st.PeakHeapDepth != 21 {
		t.Errorf("PeakHeapDepth = %d, want 21", st.PeakHeapDepth)
	}
	if e.Pending() != 0 {
		t.Errorf("%d events pending after drain", e.Pending())
	}
	for i := 0; i < 5; i++ {
		e.Schedule(1, fn)
	}
	e.Run(0)
	if got := e.Stats().FreelistHits - st.FreelistHits; got != 5 {
		t.Errorf("FreelistHits grew by %d over 5 schedules into a drained pool, want 5", got)
	}
}

// advance moves the engine with Advance or Step, as a walk of a
// persistence domain does, and checks the reference: every event due
// before the cycle fired, in order, and the rest wait.
func (c *orderChecker) advance(at Cycle, step bool) {
	c.t.Helper()
	if step {
		for c.e.Step(at) {
		}
	} else {
		c.e.Advance(at)
	}
	for _, p := range c.pending {
		if p.at < at || (step && p.at == at) {
			c.t.Fatalf("event %+v still pending after moving to %d (step %t)", p, at, step)
		}
	}
	if got := c.e.Pending(); got != len(c.pending) {
		c.t.Fatalf("engine holds %d events, reference %d", got, len(c.pending))
	}
	if !step && c.e.Now() != at {
		c.t.Fatalf("Advance(%d) left the clock at %d", at, c.e.Now())
	}
}

// Step and Advance fire events in (cycle, seq) order on the wheel and
// the far heap alike, and Advance parks the clock between events
// without dropping any: events scheduled from the parked clock keep the
// order. Reset then leaves an engine indistinguishable from a new one.
func TestStepAndAdvanceKeepOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := newOrderChecker(t)
	for round := 0; round < 3; round++ {
		for i := 0; i < 2000; i++ {
			switch rng.Intn(6) {
			case 0:
				c.schedule(Cycle(rng.Intn(4)), nil)
			case 1:
				c.schedule(Cycle(rng.Intn(3*wheelSpan)), func() { c.schedule(Cycle(rng.Intn(300)), nil) })
			case 2:
				c.schedule(Cycle(rng.Intn(wheelSpan)), nil)
			case 3:
				c.advance(c.e.Now()+Cycle(rng.Intn(400)), false)
			case 4:
				c.advance(c.e.Now()+Cycle(rng.Intn(400)), true)
			case 5:
				c.advance(c.e.Now(), false)
			}
		}
		c.advance(^Cycle(0), true)
		if c.e.Pending() != 0 {
			t.Fatalf("%d events pending after stepping to the end", c.e.Pending())
		}
		c.e.Reset()
		if c.e.Now() != 0 || c.e.Stats() != (Stats{}) || c.e.Pending() != 0 {
			t.Fatalf("Reset left clock %d, stats %+v, %d pending", c.e.Now(), c.e.Stats(), c.e.Pending())
		}
		c.seq = 0
	}
}

// A reset engine schedules without growing: the wheel, its pool and
// the far heap are kept.
func TestResetKeepsStorage(t *testing.T) {
	e := NewEngine()
	fill := func() {
		for i := 0; i < 64; i++ {
			e.Schedule(Cycle(i), func() {})
			e.Schedule(wheelSpan+Cycle(i), func() {})
		}
	}
	fill()
	e.Restore(5)
	e.Reset()
	if allocs := testing.AllocsPerRun(10, func() { fill(); e.Reset() }); allocs != 0 {
		t.Errorf("scheduling on a reset engine allocated %.1f times per run", allocs)
	}
}
