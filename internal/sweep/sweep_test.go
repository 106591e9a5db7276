package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// mkCells returns n cells whose results encode their index, spinning a
// little so parallel runs genuinely interleave.
func mkCells(n int, executed *int64) []Cell[int] {
	cells := make([]Cell[int], n)
	for i := range cells {
		i := i
		cells[i] = Cell[int]{
			Key: fmt.Sprintf("cell-%d", i),
			Run: func(m *CellMetrics) (int, error) {
				if executed != nil {
					atomic.AddInt64(executed, 1)
				}
				s := 0
				for k := 0; k < 1000*(i%7+1); k++ {
					s += k
				}
				_ = s
				m.AddRun(uint64(100+i), pmem.Stats{PMWritesAccepted: uint64(i)})
				return i * i, nil
			},
		}
	}
	return cells
}

func TestRunCollectsInCellOrder(t *testing.T) {
	cells := mkCells(40, nil)
	for _, par := range []int{1, 2, 4, 13, 0} {
		got, err := Run(Options{Parallel: par}, cells)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: results[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	cells := mkCells(25, nil)
	serial, err := Run(Options{Parallel: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Options{Parallel: 8}, cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel results differ from serial:\n%v\n%v", serial, par)
	}
}

func TestFirstErrorByIndex(t *testing.T) {
	// Cells 7 and 12 fail; the reported error must be cell 7's in every
	// mode, since cells are claimed in index order.
	mk := func() []Cell[int] {
		cells := mkCells(20, nil)
		for _, bad := range []int{7, 12} {
			bad := bad
			cells[bad].Run = func(m *CellMetrics) (int, error) {
				return 0, fmt.Errorf("cell %d failed", bad)
			}
		}
		return cells
	}
	for _, par := range []int{1, 2, 8} {
		_, err := Run(Options{Parallel: par}, mk())
		if err == nil {
			t.Fatalf("parallel=%d: no error", par)
		}
		if !strings.Contains(err.Error(), "cell 7 failed") {
			t.Errorf("parallel=%d: err = %v, want cell 7's", par, err)
		}
	}
}

func TestErrorStopsClaimingNewCells(t *testing.T) {
	var executed int64
	cells := mkCells(100, &executed)
	cells[0].Run = func(m *CellMetrics) (int, error) {
		return 0, errors.New("boom")
	}
	// Every later cell waits until cell 0's failure is recorded. Without
	// the wait, a worker descheduled between claiming cell 0 and
	// recording its failure lets the other three workers drain all 99
	// trivial cells first.
	cell0Done := make(chan struct{})
	for i := 1; i < len(cells); i++ {
		run := cells[i].Run
		cells[i].Run = func(m *CellMetrics) (int, error) {
			<-cell0Done
			return run(m)
		}
	}
	o := Options{Parallel: 4, cellDone: func(i int) {
		if i == 0 {
			close(cell0Done)
		}
	}}
	if _, err := Run(o, cells); err == nil {
		t.Fatal("no error")
	}
	// Workers may each have claimed one cell before observing the
	// failure, but nothing close to the full sweep may run.
	if n := atomic.LoadInt64(&executed); n > 8 {
		t.Errorf("%d cells executed after early failure", n)
	}
}

func TestPanicBecomesError(t *testing.T) {
	cells := mkCells(3, nil)
	cells[1].Run = func(m *CellMetrics) (int, error) { panic("kaboom") }
	for _, par := range []int{1, 3} {
		_, err := Run(Options{Parallel: par}, cells)
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("parallel=%d: err = %v, want panic converted", par, err)
		}
		if !strings.Contains(err.Error(), "cell-1") {
			t.Errorf("parallel=%d: err does not name the cell: %v", par, err)
		}
	}
}

func TestReportCellsInOrderWithMetrics(t *testing.T) {
	rep := NewReport("unit")
	cells := mkCells(12, nil)
	if _, err := Run(Options{Parallel: 4, Report: rep}, cells); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 12 {
		t.Fatalf("report has %d cells, want 12", len(rep.Cells))
	}
	var cycles uint64
	for i, m := range rep.Cells {
		if m.Index != i || m.Key != fmt.Sprintf("cell-%d", i) {
			t.Errorf("report cell %d out of order: %+v", i, m)
		}
		if m.SimCycles != uint64(100+i) || m.Runs != 1 {
			t.Errorf("cell %d metrics not folded: %+v", i, m)
		}
		if m.Controller == nil || m.Controller.PMWritesAccepted != uint64(i) {
			t.Errorf("cell %d controller stats missing: %+v", i, m.Controller)
		}
		cycles += m.SimCycles
	}
	if rep.SimCycles != cycles {
		t.Errorf("report SimCycles = %d, want %d", rep.SimCycles, cycles)
	}
	if rep.Workers != 4 {
		t.Errorf("Workers = %d, want 4", rep.Workers)
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"cell-3"`) {
		t.Error("JSON output missing cell keys")
	}
}

func TestCellSeedStableAndDecorrelated(t *testing.T) {
	if CellSeed(1, "queue/plan0") != CellSeed(1, "queue/plan0") {
		t.Error("CellSeed not stable")
	}
	seen := map[uint64]string{}
	for _, root := range []uint64{0, 1, 2, 1 << 40} {
		for _, key := range []string{"", "a", "b", "ab", "ba", "queue/0", "queue/1"} {
			s := CellSeed(root, key)
			if prev, dup := seen[s]; dup {
				t.Errorf("collision: (%d,%q) and %s -> %d", root, key, prev, s)
			}
			seen[s] = fmt.Sprintf("(%d,%q)", root, key)
		}
	}
}

func TestAddRunFoldsHighWaterByMax(t *testing.T) {
	var m CellMetrics
	m.AddRun(10, pmem.Stats{MaxPendingArrivals: 3, MediaWriteFaults: 2})
	m.AddRun(20, pmem.Stats{MaxPendingArrivals: 7, MediaRetriesExhausted: 1})
	m.AddRun(30, pmem.Stats{MaxPendingArrivals: 5})
	if m.SimCycles != 60 || m.Runs != 3 {
		t.Errorf("SimCycles/Runs = %d/%d", m.SimCycles, m.Runs)
	}
	if m.Controller.MaxPendingArrivals != 7 {
		t.Errorf("Controller.MaxPendingArrivals = %d, want 7", m.Controller.MaxPendingArrivals)
	}
	if m.Controller.MediaWriteFaults != 2 || m.Controller.MediaRetriesExhausted != 1 {
		t.Errorf("Controller media faults/retries exhausted = %d/%d, want 2/1",
			m.Controller.MediaWriteFaults, m.Controller.MediaRetriesExhausted)
	}
}

func TestAddEngineFoldsPeakByMax(t *testing.T) {
	var m CellMetrics
	m.AddEngine(sim.Stats{EventsFired: 3, CoroutineSwitches: 1, PeakHeapDepth: 9})
	m.AddEngine(sim.Stats{EventsFired: 4, CoroutineSwitches: 2, PeakHeapDepth: 5})
	want := sim.Stats{EventsFired: 7, CoroutineSwitches: 3, PeakHeapDepth: 9}
	if *m.Engine != want {
		t.Errorf("Engine = %+v, want %+v", *m.Engine, want)
	}
}
