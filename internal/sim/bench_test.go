package sim

import "testing"

// BenchmarkEngineSchedule exercises the timing wheel: events land at
// spread-out future cycles within its span, one FIFO append each. Must
// report 0 allocs/op in steady state (value entries from the recycled
// node pool).
func BenchmarkEngineSchedule(b *testing.B) {
	benchmarkSchedule(b, func(i int) Cycle { return Cycle(i%64 + 1) })
}

// BenchmarkEngineScheduleFar exercises the far heap: every event is due
// at least a wheel span ahead, the crash-cut case. Must report 0
// allocs/op in steady state (value heap plus capacity reuse).
func BenchmarkEngineScheduleFar(b *testing.B) {
	benchmarkSchedule(b, func(i int) Cycle { return wheelSpan + Cycle(i%64) })
}

func benchmarkSchedule(b *testing.B, delay func(i int) Cycle) {
	e := NewEngine()
	fn := func() {}
	// Warm the pool and the heap's backing array.
	for i := 0; i < 1024; i++ {
		e.Schedule(delay(i), fn)
	}
	e.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(delay(i), fn)
		if i%1024 == 1023 {
			b.StopTimer()
			e.Run(0)
			b.StartTimer()
		}
	}
	b.StopTimer()
	e.Run(0)
}

// BenchmarkEngineScheduleZeroDelay exercises the same-cycle slot of the
// wheel (the kick/Broadcast pattern). Must report 0 allocs/op.
func BenchmarkEngineScheduleZeroDelay(b *testing.B) {
	e := NewEngine()
	var fired int
	fn := func() { fired++ }
	for i := 0; i < 64; i++ {
		e.Schedule(0, fn)
	}
	e.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, fn)
		if i%64 == 63 {
			b.StopTimer()
			e.Run(0)
			b.StartTimer()
		}
	}
	b.StopTimer()
	e.Run(0)
}

// BenchmarkCoroutineYield measures one full host<->coroutine round trip
// (WaitCycles(1) per iteration, driven by a one-cycle Run). Must report
// 0 allocs/op: Run switches to the coroutine through its next function
// and the coroutine yields back when the cycle limit ends the run, and
// the wakeup is a resume event, with no closure. Run(0) would never
// return: the coroutine always has a wait pending.
func BenchmarkCoroutineYield(b *testing.B) {
	e := NewEngine()
	co := NewCoroutine(e, func(co *Coroutine) {
		for {
			co.WaitCycles(1)
		}
	})
	e.ScheduleResume(0, co)
	e.Run(1) // park the coroutine on its first wait
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + 1)
	}
	b.StopTimer()
	co.Abort()
}

// BenchmarkWaiterParkBroadcast measures the park/broadcast wakeup used
// by every stall site: one blocked coroutine woken per iteration.
func BenchmarkWaiterParkBroadcast(b *testing.B) {
	e := NewEngine()
	w := NewWaiter(e)
	co := NewCoroutine(e, func(co *Coroutine) {
		for {
			w.Park(co)
		}
	})
	e.ScheduleResume(0, co)
	e.Run(0) // coroutine is now parked on w
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Broadcast()
		e.Run(0)
	}
	b.StopTimer()
	co.Abort()
}
