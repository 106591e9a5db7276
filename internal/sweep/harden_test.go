package sweep

import (
	"errors"
	"fmt"
	"testing"

	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// TestPanicCellPublishesPartialMetrics is the regression test for the
// metrics-on-failure contract: a cell that folds runs into its record
// and then panics must still appear in the report with those partial
// metrics (Runs, SimCycles, controller stats), not an Err string
// alone.
func TestPanicCellPublishesPartialMetrics(t *testing.T) {
	rep := NewReport("panic-partial")
	cells := []Cell[int]{
		{Key: "healthy", Run: func(m *CellMetrics) (int, error) {
			m.AddRun(100, pmem.Stats{PMWritesAccepted: 4})
			return 1, nil
		}},
		{Key: "explodes", Run: func(m *CellMetrics) (int, error) {
			m.AddRun(250, pmem.Stats{PMWritesAccepted: 9, MaxWriteQueueDepth: 3})
			m.AddEngine(sim.Stats{EventsFired: 42})
			panic("boom mid-cell")
		}},
	}
	_, err := Run(Options{Parallel: 1, Report: rep}, cells)
	if err == nil {
		t.Fatal("panicking cell reported no error")
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("report has %d cells, want 2 (failed cell must publish)", len(rep.Cells))
	}
	m := rep.Cells[1]
	if m.Key != "explodes" || m.Err == "" {
		t.Fatalf("failed cell record = %+v, want Key explodes with Err set", m)
	}
	if m.Runs != 1 || m.SimCycles != 250 {
		t.Errorf("partial metrics lost: Runs=%d SimCycles=%d, want 1/250", m.Runs, m.SimCycles)
	}
	if m.Controller == nil || m.Controller.PMWritesAccepted != 9 {
		t.Errorf("controller stats lost from failed cell: %+v", m.Controller)
	}
	if m.Engine == nil || m.Engine.EventsFired != 42 {
		t.Errorf("engine stats lost from failed cell: %+v", m.Engine)
	}
	if m.WallNS <= 0 {
		t.Errorf("WallNS = %d, want > 0", m.WallNS)
	}
}

// TestKeepGoingRunsEveryCell: with KeepGoing, failures no longer stop
// claiming; every cell runs, and the error aggregates all failures in
// cell order as a *CellErrors.
func TestKeepGoingRunsEveryCell(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			const n = 12
			cells := make([]Cell[int], n)
			for i := range cells {
				i := i
				cells[i] = Cell[int]{Key: fmt.Sprintf("c%02d", i), Run: func(m *CellMetrics) (int, error) {
					switch i {
					case 3:
						return 0, errors.New("third cell fails")
					case 7:
						panic("seventh cell panics")
					}
					return i * i, nil
				}}
			}
			results, err := Run(Options{Parallel: par, KeepGoing: true}, cells)
			var agg *CellErrors
			if !errors.As(err, &agg) {
				t.Fatalf("err = %T %v, want *CellErrors", err, err)
			}
			if len(agg.Errs) != 2 || agg.Errs[0].Index != 3 || agg.Errs[1].Index != 7 {
				t.Fatalf("aggregate = %v, want failures at cells 3 and 7 in order", agg)
			}
			if agg.Errs[0].Key != "c03" || agg.Errs[1].Key != "c07" {
				t.Errorf("aggregate keys = %q, %q", agg.Errs[0].Key, agg.Errs[1].Key)
			}
			for i, r := range results {
				if i == 3 || i == 7 {
					continue
				}
				if r != i*i {
					t.Errorf("results[%d] = %d, want %d (healthy cells must all run)", i, r, i*i)
				}
			}
		})
	}
}

// TestGracefulDegradationAcceptance is the issue's acceptance case: a
// sweep with one injected hang (a sim-engine livelock caught by the
// event-budget watchdog) and one injected panic completes, both cells
// land in CellMetrics.Err, and every other cell's result is
// byte-identical to a clean run without the faulty cells.
func TestGracefulDegradationAcceptance(t *testing.T) {
	const n = 10
	hangIdx, panicIdx := 2, 6
	healthy := func(i int) Cell[uint64] {
		key := fmt.Sprintf("cell%02d", i)
		return Cell[uint64]{Key: key, Run: func(m *CellMetrics) (uint64, error) {
			// A deterministic mini-simulation seeded from the cell key.
			e := sim.NewEngine()
			var acc uint64
			seed := CellSeed(0xfeed, key)
			for d := 0; d < 16; d++ {
				d := d
				e.Schedule(sim.Cycle(d), func() { acc = acc*31 + seed + uint64(d) })
			}
			end := e.Run(0)
			m.AddRun(uint64(end), pmem.Stats{})
			m.AddEngine(e.Stats())
			return acc, nil
		}}
	}
	cleanVals := make(map[int]uint64)
	{
		var clean []Cell[uint64]
		for i := 0; i < n; i++ {
			if i == hangIdx || i == panicIdx {
				continue
			}
			clean = append(clean, healthy(i))
		}
		res, err := Run(Options{Parallel: 4}, clean)
		if err != nil {
			t.Fatalf("clean run failed: %v", err)
		}
		j := 0
		for i := 0; i < n; i++ {
			if i == hangIdx || i == panicIdx {
				continue
			}
			cleanVals[i] = res[j]
			j++
		}
	}

	cells := make([]Cell[uint64], n)
	for i := 0; i < n; i++ {
		switch i {
		case hangIdx:
			cells[i] = Cell[uint64]{Key: "hang", Run: func(m *CellMetrics) (uint64, error) {
				// Same-cycle livelock: without the watchdog this cell
				// would spin forever; the event budget turns it into a
				// typed error.
				e := sim.NewEngine()
				e.SetEventBudget(10_000)
				var spin func()
				spin = func() { e.Schedule(0, spin) }
				e.Schedule(0, spin)
				e.Run(0)
				m.AddEngine(e.Stats())
				if e.BudgetExceeded() {
					return 0, fmt.Errorf("cell hang: %w", sim.ErrBudgetExceeded)
				}
				return 0, nil
			}}
		case panicIdx:
			cells[i] = Cell[uint64]{Key: "panic", Run: func(m *CellMetrics) (uint64, error) {
				panic("injected cell panic")
			}}
		default:
			cells[i] = healthy(i)
		}
	}
	rep := NewReport("degraded")
	results, err := Run(Options{Parallel: 4, Report: rep, KeepGoing: true}, cells)
	var agg *CellErrors
	if !errors.As(err, &agg) || len(agg.Errs) != 2 {
		t.Fatalf("err = %v, want *CellErrors with 2 failures", err)
	}
	if agg.Errs[0].Index != hangIdx || agg.Errs[1].Index != panicIdx {
		t.Fatalf("failures at %d,%d; want %d,%d",
			agg.Errs[0].Index, agg.Errs[1].Index, hangIdx, panicIdx)
	}
	if !errors.Is(agg.Errs[0], sim.ErrBudgetExceeded) {
		t.Errorf("hang cell error = %v, want sim.ErrBudgetExceeded", agg.Errs[0])
	}
	if len(rep.Cells) != n {
		t.Fatalf("report has %d cells, want all %d", len(rep.Cells), n)
	}
	for _, i := range []int{hangIdx, panicIdx} {
		if rep.Cells[i].Err == "" {
			t.Errorf("cell %d missing CellMetrics.Err", i)
		}
	}
	if rep.Cells[hangIdx].Engine == nil || rep.Cells[hangIdx].Engine.EventsFired != 10_000 {
		t.Errorf("hang cell engine stats = %+v, want EventsFired 10000", rep.Cells[hangIdx].Engine)
	}
	for i, want := range cleanVals {
		if results[i] != want {
			t.Errorf("cell %d = %d, differs from clean run's %d", i, results[i], want)
		}
	}
}
