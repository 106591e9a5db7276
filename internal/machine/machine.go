// Package machine assembles a complete simulated system — engine,
// functional memory, PM controller, cache hierarchy, and one core per
// hardware thread — and runs workloads on it.
package machine

import (
	"errors"
	"fmt"

	"strandweaver/internal/cache"
	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
	"strandweaver/internal/trace"
)

// Run's failure taxonomy. Callers that degrade gracefully (the sweep
// engine's KeepGoing mode, the fuzz harness) classify failures with
// errors.Is instead of string matching; sim.ErrBudgetExceeded joins
// these as the watchdog's sentinel.
var (
	// ErrCycleLimit reports that Run's cycle limit elapsed with workers
	// still running: the simulation made forward progress in simulated
	// time but did not finish.
	ErrCycleLimit = errors.New("machine: cycle limit reached with workers still running")
	// ErrDeadlock reports that the event queue drained with a worker
	// still blocked: no event will ever wake it.
	ErrDeadlock = errors.New("machine: simulation quiesced with a worker still blocked (deadlock)")
)

// System is one simulated machine. PM is the persistence boundary: the
// address-interleaved PM controller topology (a single controller by
// default) that the cache hierarchy and cores route all memory traffic
// through.
type System struct {
	Eng    *sim.Engine
	Cfg    config.Config
	Design hwdesign.Design
	Mem    *mem.Machine
	PM     *pmem.Topology
	Hier   *cache.Hierarchy
	Cores  []*cpu.Core

	coros []*sim.Coroutine
}

// New builds a system for the given configuration and hardware design.
func New(cfg config.Config, design hwdesign.Design) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	m := mem.NewMachine()
	pm := pmem.NewTopology(eng, cfg, m, design.PersistAtVisibility())
	hier := cache.NewHierarchy(eng, cfg, m, pm)
	s := &System{Eng: eng, Cfg: cfg, Design: design, Mem: m, PM: pm, Hier: hier}
	for i := 0; i < cfg.Cores; i++ {
		core, err := cpu.NewCore(i, eng, cfg, design, m, hier.L1(i), pm)
		if err != nil {
			return nil, err
		}
		hier.SetGate(i, core.PersistGate())
		s.Cores = append(s.Cores, core)
	}
	return s, nil
}

// MustNew is New, panicking on configuration errors; for tests and
// examples with known-good configurations.
func MustNew(cfg config.Config, design hwdesign.Design) *System {
	s, err := New(cfg, design)
	if err != nil {
		panic(err)
	}
	return s
}

// Worker is a simulated-thread body: it runs on the given core, calling
// the core's memory API.
type Worker func(c *cpu.Core)

// Spawn creates (but does not start) a coroutine running worker on core
// i, staggered to start i cycles after the current cycle (deterministic
// tie-breaking).
func (s *System) Spawn(i int, worker Worker) {
	core := s.Cores[i]
	co := sim.NewCoroutine(s.Eng, func(_ *sim.Coroutine) { worker(core) })
	core.Attach(co)
	s.coros = append(s.coros, co)
	s.Eng.ScheduleResume(sim.Cycle(i), co)
}

// Run spawns one worker per entry of workers and runs the simulation
// until all workers finish and all persist machinery drains, or limit
// cycles elapse (0 = no limit). It returns the final cycle count. A
// failed run abandons the system (see Abandon) before it returns, so
// no unfinished worker's goroutine outlives it.
func (s *System) Run(workers []Worker, limit sim.Cycle) (sim.Cycle, error) {
	if len(workers) > len(s.Cores) {
		return 0, fmt.Errorf("machine: %d workers but only %d cores", len(workers), len(s.Cores))
	}
	for i, w := range workers {
		s.Spawn(i, w)
	}
	end := s.Eng.Run(limit)
	err := s.runErr(end, limit)
	if err != nil {
		s.Abandon()
	}
	return end, err
}

// runErr classifies a run that returned at cycle end.
func (s *System) runErr(end, limit sim.Cycle) error {
	if s.Eng.BudgetExceeded() {
		// Watchdog fired: the event budget bounds even same-cycle
		// livelocks that a cycle limit cannot catch.
		return fmt.Errorf("machine: %w after %d events at cycle %d",
			sim.ErrBudgetExceeded, s.Eng.Stats().EventsFired, end)
	}
	for _, co := range s.coros {
		if !co.Done() {
			if limit != 0 && end >= limit {
				return fmt.Errorf("%w (limit %d)", ErrCycleLimit, limit)
			}
			return ErrDeadlock
		}
	}
	return nil
}

// SetWatchdog arms the engine's event-budget watchdog (see
// sim.Engine.SetEventBudget): if more than events events fire during a
// subsequent Run, the run stops and returns an error matching
// sim.ErrBudgetExceeded instead of hanging. 0 disarms.
func (s *System) SetWatchdog(events uint64) { s.Eng.SetEventBudget(events) }

// RunAt schedules an extra event: fn runs at the absolute cycle at
// during a subsequent Run (for crash injection).
func (s *System) RunAt(at sim.Cycle, fn func()) { s.Eng.ScheduleAt(at, fn) }

// Abandon aborts all worker coroutines (crash): their goroutines unwind
// and exit. The system must not be used afterwards except to read
// functional state.
func (s *System) Abandon() {
	s.Eng.Stop()
	for _, co := range s.coros {
		co.Abort()
	}
}

// EnableTracing attaches a fresh trace recorder to every core and
// returns it; all subsequent front-end operations are recorded with
// issue and completion cycles.
func (s *System) EnableTracing() *trace.Recorder {
	r := trace.New()
	for _, c := range s.Cores {
		c.SetTracer(r)
	}
	return r
}

// TotalStats sums the per-core statistics (cpu.Stats.Add is the merge
// rule: counters sum, BusyUntil takes the maximum).
func (s *System) TotalStats() cpu.Stats {
	var t cpu.Stats
	for _, c := range s.Cores {
		t.Add(c.Stats())
	}
	return t
}
