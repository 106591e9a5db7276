package sim

import "testing"

// Regression test for the Broadcast slice-reuse pattern: Broadcast
// recycles its parked list (w.parked[:0]) while scheduling the wakeups.
// A woken coroutine that immediately re-parks appends into that same
// backing array; wake order must stay FIFO across rounds and no wakeup
// may be lost or duplicated.
func TestWaiterBroadcastReparkFIFO(t *testing.T) {
	e := NewEngine()
	w := NewWaiter(e)
	const n = 4
	const rounds = 3
	var woke []int
	for i := 0; i < n; i++ {
		i := i
		co := NewCoroutine(e, func(co *Coroutine) {
			for r := 0; r < rounds; r++ {
				w.Park(co)
				woke = append(woke, i)
			}
		})
		e.ScheduleResume(Cycle(i), co)
	}
	for r := 0; r < rounds; r++ {
		e.Schedule(Cycle(100*(r+1)), w.Broadcast)
	}
	e.Run(0)
	if len(woke) != n*rounds {
		t.Fatalf("woke %d times, want %d: %v", len(woke), n*rounds, woke)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			if woke[r*n+i] != i {
				t.Fatalf("round %d wake order %v, want FIFO 0..%d", r, woke[r*n:(r+1)*n], n-1)
			}
		}
	}
	if w.Broadcasts() != rounds {
		t.Errorf("Broadcasts = %d, want %d", w.Broadcasts(), rounds)
	}
	if w.ParkedCount() != 0 {
		t.Errorf("%d coroutines still parked", w.ParkedCount())
	}
}

// A coroutine that re-parks within the same broadcast cycle (woken by a
// zero-delay event, parks again before the next broadcast) must be woken
// again by a subsequent broadcast in the same cycle — the re-park lands
// on the fresh list, not the one being drained.
func TestWaiterReparkSameCycle(t *testing.T) {
	e := NewEngine()
	w := NewWaiter(e)
	count := 0
	co := NewCoroutine(e, func(co *Coroutine) {
		w.Park(co)
		count++
		w.Park(co)
		count++
	})
	e.ScheduleResume(0, co)
	e.Schedule(1, w.Broadcast)
	// Second broadcast in the same cycle: by then the coroutine has been
	// woken by the first and parked again.
	e.Schedule(1, func() { e.Schedule(0, w.Broadcast) })
	e.Run(0)
	if count != 2 {
		t.Errorf("woken %d times, want 2", count)
	}
	if !co.Done() {
		t.Error("coroutine did not finish")
	}
}
