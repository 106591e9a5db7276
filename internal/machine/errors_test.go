package machine

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"strandweaver/internal/backend"
	"strandweaver/internal/cpu"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// goroutinesBackTo fails the test unless the goroutine count falls back
// to base: a failed run must not leave its unfinished workers'
// goroutines parked, each keeping the whole system reachable. An
// aborted worker's goroutine exits just after its abort is
// acknowledged, so the count is given a moment to settle.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 1000 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the failed run, %d before it", n, base)
	}
}

// TestRunCycleLimitTyped pins the failure taxonomy: a worker that never
// finishes turns the cycle limit into an error matching ErrCycleLimit.
func TestRunCycleLimitTyped(t *testing.T) {
	base := runtime.NumGoroutine()
	s := MustNew(smallConfig(), hwdesign.StrandWeaver)
	blocked := func(c *cpu.Core) {
		for c.Load64(mem.DRAMBase+0x9000) == 0 {
			c.Compute(100)
		}
	}
	_, err := s.Run([]Worker{blocked}, 50_000)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
	if errors.Is(err, ErrDeadlock) || errors.Is(err, sim.ErrBudgetExceeded) {
		t.Errorf("cycle-limit error matched the wrong sentinel: %v", err)
	}
	goroutinesBackTo(t, base)
	s.Abandon()
}

// TestRunDeadlockTyped parks a worker on a condition nobody will ever
// satisfy: the event queue drains and Run reports ErrDeadlock.
func TestRunDeadlockTyped(t *testing.T) {
	base := runtime.NumGoroutine()
	s := MustNew(smallConfig(), hwdesign.StrandWeaver)
	parked := func(c *cpu.Core) {
		c.StallUntil(func() bool { return false }, backend.StallFence)
	}
	_, err := s.Run([]Worker{parked}, 0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	goroutinesBackTo(t, base)
	s.Abandon()
}

// TestWatchdogCatchesRunawayWorker arms the event-budget watchdog
// against a worker that generates events forever. Without the budget
// and without a cycle limit, Run would never return; with it, Run must
// return an error matching sim.ErrBudgetExceeded.
func TestWatchdogCatchesRunawayWorker(t *testing.T) {
	base := runtime.NumGoroutine()
	s := MustNew(smallConfig(), hwdesign.StrandWeaver)
	s.SetWatchdog(200_000)
	runaway := func(c *cpu.Core) {
		for i := 0; ; i++ {
			c.Store64(mem.DRAMBase+mem.Addr(0x9000+(i%8)*64), uint64(i))
			c.Compute(10)
		}
	}
	_, err := s.Run([]Worker{runaway}, 0)
	if !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want sim.ErrBudgetExceeded", err)
	}
	if fired := s.Eng.Stats().EventsFired; fired != 200_000 {
		t.Errorf("EventsFired = %d, want exactly the budget 200000", fired)
	}
	goroutinesBackTo(t, base)
	s.Abandon()
}

// TestWatchdogSilentOnHealthyRun checks a generous budget does not
// disturb a finishing workload.
func TestWatchdogSilentOnHealthyRun(t *testing.T) {
	s := MustNew(smallConfig(), hwdesign.StrandWeaver)
	s.SetWatchdog(5_000_000)
	worker := func(c *cpu.Core) {
		c.Store64(mem.PMBase, 7)
		c.CLWB(mem.PMBase)
		c.PersistBarrier()
		c.JoinStrand()
		c.DrainAll()
	}
	if _, err := s.Run([]Worker{worker}, 2_000_000); err != nil {
		t.Fatalf("healthy run under watchdog failed: %v", err)
	}
	if got := s.Mem.Persistent.Read64(mem.PMBase); got != 7 {
		t.Errorf("persistent value = %d, want 7", got)
	}
}
