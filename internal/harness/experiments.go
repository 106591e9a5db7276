package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/sweep"
	"strandweaver/internal/workloads"
)

// ExpOptions scales the experiment grids and selects how their
// independent cells are executed (serially or across worker
// goroutines; see internal/sweep).
type ExpOptions struct {
	// Threads and OpsPerThread size each cell's simulated run
	// (defaults 8 and 250, the paper's scale).
	Threads      int
	OpsPerThread int
	// Seed is the sweep's root workload seed. Grid cells deliberately
	// share it: every design must replay the identical operation trace
	// for speedup ratios to be paired comparisons (decorrelated
	// per-cell seeds, via sweep.CellSeed, are for sweeps whose cells
	// should be independent, like the torture combos).
	Seed int64
	// Benchmarks restricts the benchmark set (nil = all of Table II).
	Benchmarks []string
	// Designs restricts the hardware-design set for grid experiments
	// (nil = hwdesign.All). Figure 7 speedups are normalised to Intel
	// x86, so a subset that omits it reports absolute cycles only
	// (speedup 0).
	Designs []hwdesign.Design
	// Controllers is the number of address-interleaved PM controllers
	// each cell's machine shards the persistence boundary across (0 =
	// the configuration default, one controller).
	Controllers int
	// Parallel bounds the sweep's worker pool: 0 = GOMAXPROCS, 1 =
	// serial. Results are byte-identical for every value.
	Parallel int
	// Metrics, when non-nil, receives per-cell wall-time and simulator
	// metrics from every sweep these options drive. Observability only,
	// never part of the deterministic results.
	Metrics *sweep.Report
}

// sweepOptions adapts the experiment options for the sweep engine.
func (o ExpOptions) sweepOptions() sweep.Options {
	return sweep.Options{Parallel: o.Parallel, Report: o.Metrics}
}

func (o ExpOptions) withDefaults() ExpOptions {
	if o.Threads == 0 {
		o.Threads = 8
	}
	if o.OpsPerThread == 0 {
		o.OpsPerThread = 250
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workloads.Names()
	}
	if len(o.Designs) == 0 {
		o.Designs = hwdesign.All
	}
	return o
}

// GeoMean returns the geometric mean of xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// --- Table II ---

// Table2Row is one benchmark's write intensity.
type Table2Row struct {
	Benchmark   string
	Description string
	CKC         float64
}

// measuredCell wraps one measured Run as a sweep cell under an explicit
// key (keys must be unique within one sweep.Run call).
func measuredCell(key string, spec Spec) sweep.Cell[*Result] {
	return sweep.Cell[*Result]{
		Key: key,
		Run: func(m *sweep.CellMetrics) (*Result, error) {
			r, err := Run(spec)
			if err != nil {
				return nil, err
			}
			m.AddRun(r.Cycles, r.Controller)
			m.AddPerController(r.PerController)
			m.AddEngine(r.Engine)
			return r, nil
		},
	}
}

// specKey is the canonical cell key for a grid spec.
func specKey(spec Spec) string {
	return fmt.Sprintf("%s/%s/%s", spec.Benchmark, spec.Model, spec.Design)
}

// Table2 measures CLWBs per thousand cycles under the non-atomic design
// (the paper's Table II write-intensity metric).
func Table2(o ExpOptions) ([]Table2Row, error) {
	o = o.withDefaults()
	var cells []sweep.Cell[*Result]
	for _, b := range o.Benchmarks {
		if _, err := workloads.Find(b); err != nil {
			return nil, err
		}
		spec := Spec{Benchmark: b, Model: langmodel.TXN, Design: hwdesign.NonAtomic,
			Threads: o.Threads, OpsPerThread: o.OpsPerThread, Seed: o.Seed, Controllers: o.Controllers}
		cells = append(cells, measuredCell("table2/"+b, spec))
	}
	results, err := sweep.Run(o.sweepOptions(), cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(results))
	for i, r := range results {
		f, _ := workloads.Find(o.Benchmarks[i])
		rows[i] = Table2Row{Benchmark: o.Benchmarks[i], Description: f.Description, CKC: r.CKC}
	}
	return rows, nil
}

// PrintTable2 renders Table II.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table II: benchmark write intensity (CLWBs per 1000 cycles, non-atomic design)\n")
	fmt.Fprintf(w, "%-12s %-36s %8s\n", "Benchmark", "Description", "CKC")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-36s %8.2f\n", r.Benchmark, r.Description, r.CKC)
	}
}

// --- Figure 7 (speedup grid) and Figure 8 (persist stalls) ---

// Cell is one (benchmark, model, design) measurement.
type Cell struct {
	Benchmark string
	Model     langmodel.Model
	Design    hwdesign.Design
	Result    *Result
	// Speedup is cycles(IntelX86) / cycles(this design) for the same
	// benchmark and model (Figure 7 normalises to Intel x86).
	Speedup float64
	// StallRatio is stalls(this)/stalls(IntelX86).
	StallRatio float64
}

// Grid holds the full evaluation grid.
type Grid struct {
	Options ExpOptions
	Cells   []*Cell
}

// RunGrid measures every benchmark x model x design combination. The
// cells are independent simulations, so they run on the sweep engine
// (o.Parallel workers); results are folded in grid order afterwards,
// which keeps the grid byte-identical to a serial run.
func RunGrid(o ExpOptions) (*Grid, error) {
	o = o.withDefaults()
	var cells []sweep.Cell[*Result]
	for _, b := range o.Benchmarks {
		for _, m := range langmodel.All {
			for _, d := range o.Designs {
				spec := Spec{Benchmark: b, Model: m, Design: d,
					Threads: o.Threads, OpsPerThread: o.OpsPerThread, Seed: o.Seed, Controllers: o.Controllers}
				cells = append(cells, measuredCell(specKey(spec), spec))
			}
		}
	}
	results, err := sweep.Run(o.sweepOptions(), cells)
	if err != nil {
		return nil, err
	}
	g := &Grid{Options: o}
	i := 0
	for _, b := range o.Benchmarks {
		for _, m := range langmodel.All {
			// The Intel baseline may sit anywhere in the design subset
			// (or be absent, leaving speedups at 0), so locate it before
			// normalising the row.
			var intel *Result
			for j, d := range o.Designs {
				if d == hwdesign.IntelX86 {
					intel = results[i+j]
				}
			}
			for _, d := range o.Designs {
				r := results[i]
				i++
				c := &Cell{Benchmark: b, Model: m, Design: d, Result: r}
				if intel != nil && intel.Cycles > 0 && r.Cycles > 0 {
					c.Speedup = float64(intel.Cycles) / float64(r.Cycles)
					ip := intel.CoreTotals.PersistStallCycles()
					if ip > 0 {
						c.StallRatio = float64(r.CoreTotals.PersistStallCycles()) / float64(ip)
					}
				}
				g.Cells = append(g.Cells, c)
			}
		}
	}
	return g, nil
}

// Cell returns the grid cell for (b, m, d), or nil.
func (g *Grid) Cell(b string, m langmodel.Model, d hwdesign.Design) *Cell {
	for _, c := range g.Cells {
		if c.Benchmark == b && c.Model == m && c.Design == d {
			return c
		}
	}
	return nil
}

// Speedups returns every speedup of design d over Intel x86 across the
// grid (one per benchmark x model).
func (g *Grid) Speedups(d hwdesign.Design) []float64 {
	var out []float64
	for _, c := range g.Cells {
		if c.Design == d && c.Speedup > 0 {
			out = append(out, c.Speedup)
		}
	}
	return out
}

// SpeedupsOver returns speedups of design d over design base.
func (g *Grid) SpeedupsOver(d, base hwdesign.Design) []float64 {
	var out []float64
	for _, c := range g.Cells {
		if c.Design != d {
			continue
		}
		bc := g.Cell(c.Benchmark, c.Model, base)
		if bc != nil && bc.Result.Cycles > 0 && c.Result.Cycles > 0 {
			out = append(out, float64(bc.Result.Cycles)/float64(c.Result.Cycles))
		}
	}
	return out
}

// ModelSpeedups returns StrandWeaver-over-Intel speedups restricted to
// one language model (the paper's per-model sensitivity).
func (g *Grid) ModelSpeedups(m langmodel.Model) []float64 {
	var out []float64
	for _, c := range g.Cells {
		if c.Design == hwdesign.StrandWeaver && c.Model == m && c.Speedup > 0 {
			out = append(out, c.Speedup)
		}
	}
	return out
}

// PrintFig7 renders the Figure 7 speedup grid (normalised to Intel x86).
func PrintFig7(w io.Writer, g *Grid) {
	fmt.Fprintf(w, "Figure 7: speedup over Intel x86 (higher is better)\n")
	for _, m := range langmodel.All {
		fmt.Fprintf(w, "\n[%s]\n%-12s", strings.ToUpper(m.String()), "benchmark")
		for _, d := range g.Options.Designs {
			fmt.Fprintf(w, " %16s", d)
		}
		fmt.Fprintln(w)
		for _, b := range g.Options.Benchmarks {
			fmt.Fprintf(w, "%-12s", b)
			for _, d := range g.Options.Designs {
				c := g.Cell(b, m, d)
				if c == nil {
					fmt.Fprintf(w, " %16s", "-")
					continue
				}
				fmt.Fprintf(w, " %15.2fx", c.Speedup)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\nGeometric means over all benchmarks and models:\n")
	for _, d := range g.Options.Designs {
		fmt.Fprintf(w, "  %-18s %6.2fx vs intel-x86", d, GeoMean(g.Speedups(d)))
		if d != hwdesign.HOPS {
			fmt.Fprintf(w, "   %6.2fx vs hops", GeoMean(g.SpeedupsOver(d, hwdesign.HOPS)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nPer-model StrandWeaver speedup (paper: SFR 1.50x > TXN 1.45x > ATLAS 1.40x):\n")
	for _, m := range langmodel.All {
		fmt.Fprintf(w, "  %-6s %6.2fx\n", m, GeoMean(g.ModelSpeedups(m)))
	}
}

// Claims summarises the paper's headline numbers from a grid.
type Claims struct {
	SWvsIntelGeo, SWvsIntelMax float64
	SWvsHOPSGeo, SWvsHOPSMax   float64
	NoPQvsIntelGeo             float64
	SWvsNoPQGeo                float64
	GapToNonAtomic             float64
	StallReductionVsIntel      float64
	NoPQStallReductionVsIntel  float64
	PerModel                   map[string]float64
}

// ComputeClaims extracts the headline comparisons.
func ComputeClaims(g *Grid) Claims {
	cl := Claims{PerModel: map[string]float64{}}
	sw := g.Speedups(hwdesign.StrandWeaver)
	cl.SWvsIntelGeo = GeoMean(sw)
	cl.SWvsIntelMax = maxOf(sw)
	h := g.SpeedupsOver(hwdesign.StrandWeaver, hwdesign.HOPS)
	cl.SWvsHOPSGeo = GeoMean(h)
	cl.SWvsHOPSMax = maxOf(h)
	cl.NoPQvsIntelGeo = GeoMean(g.Speedups(hwdesign.NoPersistQueue))
	cl.SWvsNoPQGeo = GeoMean(g.SpeedupsOver(hwdesign.StrandWeaver, hwdesign.NoPersistQueue))
	na := g.SpeedupsOver(hwdesign.NonAtomic, hwdesign.StrandWeaver)
	cl.GapToNonAtomic = GeoMean(na) - 1
	cl.StallReductionVsIntel = 1 - geoMeanStallRatio(g, hwdesign.StrandWeaver)
	cl.NoPQStallReductionVsIntel = 1 - geoMeanStallRatio(g, hwdesign.NoPersistQueue)
	for _, m := range langmodel.All {
		cl.PerModel[m.String()] = GeoMean(g.ModelSpeedups(m))
	}
	return cl
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func geoMeanStallRatio(g *Grid, d hwdesign.Design) float64 {
	var rs []float64
	for _, c := range g.Cells {
		if c.Design == d && c.StallRatio > 0 {
			rs = append(rs, c.StallRatio)
		}
	}
	return GeoMean(rs)
}

// PrintClaims renders the headline-claims comparison with the paper.
func PrintClaims(w io.Writer, cl Claims) {
	fmt.Fprintf(w, "Headline claims (paper -> measured):\n")
	fmt.Fprintf(w, "  SW vs Intel x86:   paper 1.45x avg / 1.97x max -> %.2fx avg / %.2fx max\n", cl.SWvsIntelGeo, cl.SWvsIntelMax)
	fmt.Fprintf(w, "  SW vs HOPS:        paper 1.20x avg / 1.55x max -> %.2fx avg / %.2fx max\n", cl.SWvsHOPSGeo, cl.SWvsHOPSMax)
	fmt.Fprintf(w, "  NoPQ vs Intel:     paper 1.29x avg            -> %.2fx avg\n", cl.NoPQvsIntelGeo)
	fmt.Fprintf(w, "  SW vs NoPQ:        paper 1.13x avg            -> %.2fx avg\n", cl.SWvsNoPQGeo)
	fmt.Fprintf(w, "  gap to non-atomic: paper 3.1-5.7%%             -> %.1f%%\n", cl.GapToNonAtomic*100)
	fmt.Fprintf(w, "  stall reduction:   paper 62.4%% (SW), 52.3%% (NoPQ) -> %.1f%% (SW), %.1f%% (NoPQ)\n",
		cl.StallReductionVsIntel*100, cl.NoPQStallReductionVsIntel*100)
	models := make([]string, 0, len(cl.PerModel))
	for m := range cl.PerModel {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		fmt.Fprintf(w, "  per-model SW speedup [%s]: %.2fx\n", m, cl.PerModel[m])
	}
}

// PrintFig8 renders Figure 8: persist-ordering stalls relative to Intel.
func PrintFig8(w io.Writer, g *Grid) {
	fmt.Fprintf(w, "Figure 8: CPU stall cycles enforcing persist order (normalised to Intel x86)\n")
	fmt.Fprintf(w, "%-12s %-6s", "benchmark", "model")
	for _, d := range g.Options.Designs {
		fmt.Fprintf(w, " %16s", d)
	}
	fmt.Fprintln(w)
	for _, b := range g.Options.Benchmarks {
		for _, m := range langmodel.All {
			fmt.Fprintf(w, "%-12s %-6s", b, m)
			for _, d := range g.Options.Designs {
				c := g.Cell(b, m, d)
				if c == nil {
					fmt.Fprintf(w, " %16s", "-")
					continue
				}
				fmt.Fprintf(w, " %15.2f ", c.StallRatio)
			}
			fmt.Fprintln(w)
		}
	}
}

// --- Figure 9: strand buffer sensitivity ---

// Fig9Point is one (buffers, entries) configuration's mean speedup.
type Fig9Point struct {
	Buffers, Entries int
	GeoSpeedup       float64
}

// Fig9Configs are the paper's swept configurations.
var Fig9Configs = [][2]int{{1, 1}, {2, 2}, {2, 4}, {4, 2}, {4, 4}, {8, 8}}

// Fig9 sweeps strand-buffer-unit geometry under the SFR model (as the
// paper does) and reports speedup over Intel x86. On the sweep engine
// the Intel baseline runs once per benchmark and is shared across all
// geometries (the serial driver used to re-measure it per geometry;
// the measurement is deterministic, so sharing changes nothing).
func Fig9(o ExpOptions) ([]Fig9Point, error) {
	o = o.withDefaults()
	var cells []sweep.Cell[*Result]
	for _, b := range o.Benchmarks {
		cells = append(cells, measuredCell("fig9/intel/"+b,
			Spec{Benchmark: b, Model: langmodel.SFR, Design: hwdesign.IntelX86,
				Threads: o.Threads, OpsPerThread: o.OpsPerThread, Seed: o.Seed, Controllers: o.Controllers}))
	}
	for _, bc := range Fig9Configs {
		for _, b := range o.Benchmarks {
			cfg := config.Default()
			cfg.StrandBuffers = bc[0]
			cfg.StrandBufferEntries = bc[1]
			cells = append(cells, measuredCell(fmt.Sprintf("fig9/sw%dx%d/%s", bc[0], bc[1], b),
				Spec{Benchmark: b, Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
					Threads: o.Threads, OpsPerThread: o.OpsPerThread, Seed: o.Seed, Cfg: &cfg, Controllers: o.Controllers}))
		}
	}
	results, err := sweep.Run(o.sweepOptions(), cells)
	if err != nil {
		return nil, err
	}
	intel := results[:len(o.Benchmarks)]
	var out []Fig9Point
	for ci, bc := range Fig9Configs {
		var sps []float64
		for bi := range o.Benchmarks {
			sw := results[len(o.Benchmarks)*(ci+1)+bi]
			sps = append(sps, float64(intel[bi].Cycles)/float64(sw.Cycles))
		}
		out = append(out, Fig9Point{Buffers: bc[0], Entries: bc[1], GeoSpeedup: GeoMean(sps)})
	}
	return out, nil
}

// PrintFig9 renders the sensitivity sweep.
func PrintFig9(w io.Writer, pts []Fig9Point) {
	fmt.Fprintf(w, "Figure 9: sensitivity to strand buffer unit geometry (SFR model)\n")
	fmt.Fprintf(w, "%-22s %10s\n", "(buffers, entries)", "speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "(%d, %d)%-16s %9.2fx\n", p.Buffers, p.Entries, "", p.GeoSpeedup)
	}
}

// --- Figure 10: operations per SFR ---

// Fig10Point is one region-size measurement.
type Fig10Point struct {
	OpsPerSFR  int
	GeoSpeedup float64
}

// Fig10 varies the number of mutations per failure-atomic region using
// the arrayswap microbenchmark family (swaps batched per region) and
// reports StrandWeaver's speedup over Intel x86. Each (design, region
// size) pair is one sweep cell.
func Fig10(o ExpOptions, sizes []int) ([]Fig10Point, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{2, 4, 8, 16, 32}
	}
	var cells []sweep.Cell[uint64]
	for _, n := range sizes {
		for _, d := range []hwdesign.Design{hwdesign.IntelX86, hwdesign.StrandWeaver} {
			n, d := n, d
			cells = append(cells, sweep.Cell[uint64]{
				Key: fmt.Sprintf("fig10/%s/%d", d, n),
				Run: func(m *sweep.CellMetrics) (uint64, error) {
					cycles, err := runBatched(o, d, n, m)
					return cycles, err
				},
			})
		}
	}
	results, err := sweep.Run(o.sweepOptions(), cells)
	if err != nil {
		return nil, err
	}
	out := make([]Fig10Point, len(sizes))
	for i, n := range sizes {
		intel, sw := results[2*i], results[2*i+1]
		out[i] = Fig10Point{OpsPerSFR: n, GeoSpeedup: float64(intel) / float64(sw)}
	}
	return out, nil
}

// runBatched measures the Figure 10 batched-swap workload and returns
// total cycles; met, when non-nil, receives the run's metrics.
func runBatched(o ExpOptions, d hwdesign.Design, opsPerRegion int, met *sweep.CellMetrics) (uint64, error) {
	cfg := config.Default()
	if cfg.Cores < o.Threads {
		cfg.Cores = o.Threads
	}
	if o.Controllers != 0 {
		cfg.PMControllers = o.Controllers
	}
	sys, err := machine.New(cfg, d)
	if err != nil {
		return 0, err
	}
	inst := workloads.NewBatchedSwap(workloads.Params{Threads: o.Threads, OpsPerThread: o.OpsPerThread, Seed: o.Seed}, opsPerRegion)
	ws := workloads.Prepare(sys, inst, langmodel.SFR, langmodel.DefaultOptions(), o.Threads)
	end, err := sys.Run(ws, 2_000_000_000)
	if err != nil {
		return 0, err
	}
	if met != nil {
		met.AddRun(uint64(end), sys.PM.Stats())
		met.AddPerController(sys.PM.PerController())
		met.AddEngine(sys.Eng.Stats())
	}
	return uint64(end), nil
}

// PrintFig10 renders the region-size sweep.
func PrintFig10(w io.Writer, pts []Fig10Point) {
	fmt.Fprintf(w, "Figure 10: speedup vs operations per SFR (paper: grows from 1.10x at 2 ops)\n")
	fmt.Fprintf(w, "%-12s %10s\n", "ops/SFR", "speedup")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12d %9.2fx\n", p.OpsPerSFR, p.GeoSpeedup)
	}
}
