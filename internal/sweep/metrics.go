package sweep

import (
	"encoding/json"
	"io"

	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// CellMetrics is one cell's observability record: how long the cell
// took on the wall clock, how much simulated time it covered, and what
// its PM controllers observed. The engine fills Key, Index, Worker,
// WallNS and Err; the cell body folds simulator outcomes in with
// AddRun. Everything except Key, Index, SimCycles, Runs and the
// controller counters varies run-to-run — metrics are a side channel,
// never part of a sweep's deterministic results.
type CellMetrics struct {
	// Key is the cell's identity within the sweep.
	Key string `json:"key"`
	// Index is the cell's position in sweep order.
	Index int `json:"index"`
	// Worker is the pool slot that executed the cell (0 when serial).
	// Not deterministic across runs.
	Worker int `json:"worker"`
	// WallNS is the cell's host wall-clock time in nanoseconds. Not
	// deterministic across runs.
	WallNS int64 `json:"wall_ns"`
	// Runs counts the simulator runs folded into this record (a grid
	// cell runs one machine; a torture cell runs one per crash point).
	Runs int `json:"runs,omitempty"`
	// SimCycles totals the simulated cycles across the cell's runs.
	SimCycles uint64 `json:"sim_cycles,omitempty"`
	// Controller folds the cell's PM-controller statistics aggregated
	// across all controllers: counters sum across runs, high-water marks
	// take the maximum (pmem.Stats.Add is the merge rule).
	Controller *pmem.Stats `json:"controller,omitempty"`
	// Controllers folds per-controller statistics in controller index
	// order. Populated only for multi-controller cells (nil otherwise,
	// so single-controller metrics keep their pre-topology shape).
	Controllers []pmem.Stats `json:"controllers,omitempty"`
	// Engine folds the cell's discrete-event-core counters: event and
	// switch counts sum across runs, the heap high-water mark takes the
	// maximum. Deterministic for a given cell.
	Engine *sim.Stats `json:"engine,omitempty"`
	// PrefixReused reports that the cell forked from a crash-prefix
	// checkpoint built by another cell (the warm-start sharing in
	// docs/SNAPSHOT.md). Which cell builds a shared prefix depends on
	// scheduling, so this is not deterministic across runs — results
	// are, checkpoint provenance is not.
	PrefixReused bool `json:"prefix_reused,omitempty"`
	// CheckpointHits counts crash cuts this cell served from a prefix
	// checkpoint instead of re-simulating from cycle zero;
	// CheckpointMisses counts checkpoints the cell had to capture
	// itself. Like PrefixReused, scheduling-dependent under parallelism.
	CheckpointHits   uint64 `json:"checkpoint_hits,omitempty"`
	CheckpointMisses uint64 `json:"checkpoint_misses,omitempty"`
	// COW folds the cell's copy-on-write checkpoint counters (pages
	// frozen by captures, COW faults paid, restore pages-diverged,
	// peak unique checkpoint bytes; mem.Stats.Add is the merge rule).
	// Nil for cells that never capture images, so existing metrics keep
	// their pre-COW JSON shape.
	COW *mem.Stats `json:"cow,omitempty"`
	// Err records the cell's failure, if any.
	Err string `json:"error,omitempty"`
}

// AddRun folds one simulator run's outcome into the record: the run's
// final cycle count and its PM controller snapshot.
func (m *CellMetrics) AddRun(cycles uint64, st pmem.Stats) {
	m.Runs++
	m.SimCycles += cycles
	if m.Controller == nil {
		m.Controller = &pmem.Stats{}
	}
	m.Controller.Add(st)
}

// AddPerController folds one run's per-controller statistics (in
// controller index order) into the record. A no-op on single-controller
// runs, so single-controller cells never grow a controllers array.
func (m *CellMetrics) AddPerController(per []pmem.Stats) {
	if len(per) <= 1 {
		return
	}
	if m.Controllers == nil {
		m.Controllers = make([]pmem.Stats, len(per))
	}
	for i := range per {
		m.Controllers[i].Add(per[i])
	}
}

// AddEngine folds one run's discrete-event-core counters into the
// record. Called alongside AddRun by cell bodies that have the engine
// in scope.
func (m *CellMetrics) AddEngine(st sim.Stats) {
	if m.Engine == nil {
		m.Engine = &sim.Stats{}
	}
	m.Engine.Add(st)
}

// AddCOW folds copy-on-write checkpoint counters into the record.
// Called by cell bodies that capture memory images (torture cells fold
// their capture run's counters; the gauge field CheckpointBytes merges
// by maximum).
func (m *CellMetrics) AddCOW(st mem.Stats) {
	if st == (mem.Stats{}) {
		return
	}
	if m.COW == nil {
		m.COW = &mem.Stats{}
	}
	m.COW.Add(st)
}

// Report collects the per-cell metrics of one or more sweeps run under
// the same Options (sweeps append in execution order, cells within a
// sweep in cell order). The CLI emits it as JSON via -metrics-out.
type Report struct {
	// Name labels the sweep (the CLI uses the experiment name).
	Name string `json:"name"`
	// Parallel is the requested worker count (0 = GOMAXPROCS); Workers
	// is the resolved pool size of the last sweep appended.
	Parallel int `json:"parallel"`
	Workers  int `json:"workers"`
	// WallNS totals the sweeps' wall-clock time; CellWallNS totals the
	// per-cell wall times (CellWallNS/WallNS approximates pool
	// utilisation). Neither is deterministic.
	WallNS     int64 `json:"wall_ns"`
	CellWallNS int64 `json:"cell_wall_ns"`
	// SimCycles totals simulated cycles across all cells.
	SimCycles uint64 `json:"sim_cycles"`
	// Cells holds one record per executed cell.
	Cells []CellMetrics `json:"cells"`
}

// NewReport returns an empty report with the given label.
func NewReport(name string) *Report { return &Report{Name: name} }

// add appends one cell record and updates the aggregates.
func (r *Report) add(m CellMetrics) {
	r.Cells = append(r.Cells, m)
	r.CellWallNS += m.WallNS
	r.SimCycles += m.SimCycles
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteReportsJSON writes several reports as one indented JSON array
// (the CLI's -metrics-out format when a command runs multiple sweeps).
func WriteReportsJSON(w io.Writer, reports []*Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
