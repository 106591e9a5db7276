package sim

import (
	"math/rand"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) }) // same cycle: FIFO by seq
	e.Schedule(20, func() { order = append(order, 4) })
	e.Run(0)
	want := []int{1, 2, 3, 4}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now = %d, want 20", e.Now())
	}
}

func TestEngineZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	var at []Cycle
	e.Schedule(7, func() {
		e.Schedule(0, func() { at = append(at, e.Now()) })
	})
	e.Run(0)
	if len(at) != 1 || at[0] != 7 {
		t.Errorf("zero-delay event ran at %v, want [7]", at)
	}
}

func TestEngineLimit(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(100, func() { fired = true })
	end := e.Run(50)
	if fired {
		t.Error("event beyond limit fired")
	}
	if end != 50 {
		t.Errorf("end = %d, want 50", end)
	}
	// Continuing past the limit fires it.
	e.Run(0)
	if !fired {
		t.Error("event did not fire after limit lifted")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Cycle(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(0)
	if count != 3 {
		t.Errorf("count = %d, want 3 (stop mid-run)", count)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(5, func() {})
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine()
		r := rand.New(rand.NewSource(seed))
		var out []int
		var rec func(depth int)
		rec = func(depth int) {
			if depth > 3 {
				return
			}
			for i := 0; i < 3; i++ {
				id := r.Int()
				e.Schedule(Cycle(r.Intn(50)), func() {
					out = append(out, id)
					rec(depth + 1)
				})
			}
		}
		rec(0)
		e.Run(0)
		return out
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d", i)
		}
	}
}

func TestCoroutineBasic(t *testing.T) {
	e := NewEngine()
	var trace []string
	co := NewCoroutine(e, func(co *Coroutine) {
		trace = append(trace, "start")
		co.WaitCycles(10)
		trace = append(trace, "after10")
		co.WaitCycles(5)
		trace = append(trace, "done")
	})
	e.ScheduleResume(0, co)
	e.Run(0)
	if !co.Done() {
		t.Fatal("coroutine not done")
	}
	if e.Now() != 15 {
		t.Errorf("clock = %d, want 15", e.Now())
	}
	want := []string{"start", "after10", "done"}
	for i, s := range want {
		if trace[i] != s {
			t.Fatalf("trace = %v", trace)
		}
	}
}

func TestCoroutineAbortUnwinds(t *testing.T) {
	e := NewEngine()
	cleaned := false
	co := NewCoroutine(e, func(co *Coroutine) {
		defer func() { cleaned = true }()
		co.WaitCycles(1000)
		t.Error("coroutine ran past abort point")
	})
	e.ScheduleResume(0, co)
	e.Schedule(5, func() { e.Stop() })
	e.Run(0)
	co.Abort()
	if !co.Done() {
		t.Error("aborted coroutine not done")
	}
	if cleaned {
		// Abort unwinds via panic; deferred functions DO run. Verify
		// that behaviour explicitly.
	} else {
		t.Error("deferred cleanup did not run during abort unwind")
	}
	// Double abort is a no-op.
	co.Abort()
}

func TestWaiterFIFO(t *testing.T) {
	e := NewEngine()
	w := NewWaiter(e)
	var woke []int
	for i := 0; i < 3; i++ {
		i := i
		co := NewCoroutine(e, func(co *Coroutine) {
			w.Park(co)
			woke = append(woke, i)
		})
		e.ScheduleResume(Cycle(i), co)
	}
	e.Schedule(10, w.Broadcast)
	e.Run(0)
	if len(woke) != 3 {
		t.Fatalf("woke %v", woke)
	}
	for i := 0; i < 3; i++ {
		if woke[i] != i {
			t.Fatalf("wake order %v, want FIFO", woke)
		}
	}
	if w.Broadcasts() != 1 {
		t.Errorf("Broadcasts = %d, want 1", w.Broadcasts())
	}
}
