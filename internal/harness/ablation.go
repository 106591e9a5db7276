package harness

import (
	"fmt"
	"io"

	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/redolog"
	"strandweaver/internal/sweep"
	"strandweaver/internal/undolog"
)

// The ablation experiments probe DESIGN.md's design choices beyond the
// paper's own figures: the undo-vs-redo logging engines (the paper's
// Section VII future-work sketch), the persist-queue depth, and the
// HOPS persist-buffer capacity.

// LoggingAblationPoint compares the undo and redo engines at one
// transaction size.
type LoggingAblationPoint struct {
	StoresPerTx int
	UndoCycles  uint64
	RedoCycles  uint64
	// RedoSpeedup is UndoCycles / RedoCycles.
	RedoSpeedup float64
}

// LoggingAblation measures failure-atomic transactions of varying size
// under both logging engines on the StrandWeaver design. The kernel is
// thread-private (no locks, disjoint segments), so it runs on two
// threads: more would only add PM-controller contention that masks the
// ordering-cost difference under study.
func LoggingAblation(o ExpOptions, sizes []int) ([]LoggingAblationPoint, error) {
	o = o.withDefaults()
	if o.Threads > 2 {
		o.Threads = 2
	}
	if len(sizes) == 0 {
		sizes = []int{2, 4, 8, 16}
	}
	var cells []sweep.Cell[uint64]
	for _, n := range sizes {
		for _, redo := range []bool{false, true} {
			n, redo := n, redo
			engine := "undo"
			if redo {
				engine = "redo"
			}
			cells = append(cells, sweep.Cell[uint64]{
				Key: fmt.Sprintf("logging/%s/%d", engine, n),
				Run: func(m *sweep.CellMetrics) (uint64, error) {
					return runLoggingTx(o, n, redo, m)
				},
			})
		}
	}
	results, err := sweep.Run(o.sweepOptions(), cells)
	if err != nil {
		return nil, err
	}
	out := make([]LoggingAblationPoint, len(sizes))
	for i, n := range sizes {
		undoCycles, redoCycles := results[2*i], results[2*i+1]
		out[i] = LoggingAblationPoint{
			StoresPerTx: n,
			UndoCycles:  undoCycles,
			RedoCycles:  redoCycles,
			RedoSpeedup: float64(undoCycles) / float64(redoCycles),
		}
	}
	return out, nil
}

// runLoggingTx runs a multi-threaded transaction kernel: each thread
// repeatedly writes n cells of a private segment inside one
// failure-atomic transaction. met, when non-nil, receives the run's
// metrics.
func runLoggingTx(o ExpOptions, storesPerTx int, redo bool, met *sweep.CellMetrics) (uint64, error) {
	cfg := config.Default()
	if cfg.Cores < o.Threads {
		cfg.Cores = o.Threads
	}
	if o.Controllers != 0 {
		cfg.PMControllers = o.Controllers
	}
	sys, err := machine.New(cfg, hwdesign.StrandWeaver)
	if err != nil {
		return 0, err
	}
	const segLines = 64
	base := mem.PMBase + undolog.HeapOffset
	for t := 0; t < o.Threads; t++ {
		for i := 0; i < segLines; i++ {
			a := base + mem.Addr((t*segLines+i)*mem.LineSize)
			sys.Mem.Volatile.Write64(a, 1)
			sys.Mem.Persistent.Write64(a, 1)
			sys.Hier.Preload(mem.LineAddr(a))
		}
	}
	txs := o.OpsPerThread
	var workers []machine.Worker
	if redo {
		logs := redolog.Init(sys, o.Threads, 2048)
		for t := 0; t < o.Threads; t++ {
			l := logs.PerThread[t]
			seg := base + mem.Addr(t*segLines*mem.LineSize)
			workers = append(workers, func(c *cpu.Core) {
				for it := 0; it < txs; it++ {
					tx := l.Begin(c)
					for k := 0; k < storesPerTx; k++ {
						tx.Store(seg+mem.Addr(((it+k)%segLines)*mem.LineSize), uint64(it))
					}
					tx.Commit()
					if (it+1)%8 == 0 {
						l.GroupCommit(c)
					}
				}
				l.GroupCommit(c)
				c.DrainAll()
			})
		}
	} else {
		logs := undolog.Init(sys, o.Threads, 2048)
		for t := 0; t < o.Threads; t++ {
			l := logs.PerThread[t]
			seg := base + mem.Addr(t*segLines*mem.LineSize)
			workers = append(workers, func(c *cpu.Core) {
				for it := 0; it < txs; it++ {
					for k := 0; k < storesPerTx; k++ {
						l.LoggedStore(c, seg+mem.Addr(((it+k)%segLines)*mem.LineSize), uint64(it))
					}
					l.CommitUpTo(c, l.Tail())
				}
				c.DrainAll()
			})
		}
	}
	end, err := sys.Run(workers, 2_000_000_000)
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

// PrintLoggingAblation renders the undo-vs-redo comparison.
func PrintLoggingAblation(w io.Writer, pts []LoggingAblationPoint) {
	fmt.Fprintf(w, "Ablation: undo vs redo logging engines on StrandWeaver (paper Section VII sketch)\n")
	fmt.Fprintf(w, "%-12s %14s %14s %12s\n", "stores/tx", "undo cycles", "redo cycles", "redo gain")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12d %14d %14d %11.2fx\n", p.StoresPerTx, p.UndoCycles, p.RedoCycles, p.RedoSpeedup)
	}
}

// QueueDepthPoint is one persist-queue-depth measurement.
type QueueDepthPoint struct {
	Entries int
	Cycles  uint64
	// SpeedupVs4 normalises to the shallowest configuration.
	SpeedupVs4 float64
}

// PersistQueueDepthAblation sweeps the persist-queue capacity on the
// write-heavy KV workload (the paper fixes 16 entries; this probes why).
func PersistQueueDepthAblation(o ExpOptions, depths []int) ([]QueueDepthPoint, error) {
	o = o.withDefaults()
	if len(depths) == 0 {
		depths = []int{4, 8, 16, 32}
	}
	var cells []sweep.Cell[*Result]
	for _, d := range depths {
		cfg := config.Default()
		cfg.PersistQueueEntries = d
		cells = append(cells, measuredCell(fmt.Sprintf("pqdepth/%d", d),
			Spec{Benchmark: "nstore-wr", Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
				Threads: o.Threads, OpsPerThread: o.OpsPerThread, Seed: o.Seed, Cfg: &cfg, Controllers: o.Controllers}))
	}
	results, err := sweep.Run(o.sweepOptions(), cells)
	if err != nil {
		return nil, err
	}
	base := results[0].Cycles
	out := make([]QueueDepthPoint, len(depths))
	for i, d := range depths {
		out[i] = QueueDepthPoint{Entries: d, Cycles: results[i].Cycles,
			SpeedupVs4: float64(base) / float64(results[i].Cycles)}
	}
	return out, nil
}

// PrintQueueDepthAblation renders the persist-queue sweep.
func PrintQueueDepthAblation(w io.Writer, pts []QueueDepthPoint) {
	fmt.Fprintf(w, "Ablation: persist queue depth (nstore-wr, SFR; paper default 16)\n")
	fmt.Fprintf(w, "%-12s %14s %12s\n", "entries", "cycles", "vs smallest")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12d %14d %11.2fx\n", p.Entries, p.Cycles, p.SpeedupVs4)
	}
}

// FlushInstrPoint compares CLWB (non-invalidating, the paper's
// assumption) with CLFLUSHOPT (invalidating, older x86) on one design.
type FlushInstrPoint struct {
	Design           hwdesign.Design
	CLWBCycles       uint64
	CLFLUSHOPTCycles uint64
	// Penalty is CLFLUSHOPT/CLWB (≥ 1: invalidation re-miss cost).
	Penalty float64
}

// FlushInstructionAblation quantifies why the paper assumes CLWB: an
// invalidating flush forces the next access to the flushed line to
// miss, which hurts most exactly where flushes are frequent.
func FlushInstructionAblation(o ExpOptions) ([]FlushInstrPoint, error) {
	o = o.withDefaults()
	designs := []hwdesign.Design{hwdesign.IntelX86, hwdesign.StrandWeaver}
	var cells []sweep.Cell[*Result]
	for _, d := range designs {
		cells = append(cells, measuredCell(fmt.Sprintf("flush/clwb/%s", d),
			Spec{Benchmark: "nstore-wr", Model: langmodel.SFR, Design: d,
				Threads: o.Threads, OpsPerThread: o.OpsPerThread, Seed: o.Seed, Controllers: o.Controllers}))
		cfg := config.Default()
		cfg.FlushInvalidates = true
		cells = append(cells, measuredCell(fmt.Sprintf("flush/clflushopt/%s", d),
			Spec{Benchmark: "nstore-wr", Model: langmodel.SFR, Design: d,
				Threads: o.Threads, OpsPerThread: o.OpsPerThread, Seed: o.Seed, Cfg: &cfg, Controllers: o.Controllers}))
	}
	results, err := sweep.Run(o.sweepOptions(), cells)
	if err != nil {
		return nil, err
	}
	out := make([]FlushInstrPoint, len(designs))
	for i, d := range designs {
		clwb, inv := results[2*i], results[2*i+1]
		out[i] = FlushInstrPoint{
			Design: d, CLWBCycles: clwb.Cycles, CLFLUSHOPTCycles: inv.Cycles,
			Penalty: float64(inv.Cycles) / float64(clwb.Cycles),
		}
	}
	return out, nil
}

// PrintFlushInstructionAblation renders the flush-instruction comparison.
func PrintFlushInstructionAblation(w io.Writer, pts []FlushInstrPoint) {
	fmt.Fprintf(w, "Ablation: CLWB vs CLFLUSHOPT (invalidating flush; nstore-wr, SFR)\n")
	fmt.Fprintf(w, "%-18s %14s %16s %10s\n", "design", "CLWB cycles", "CLFLUSHOPT cyc", "penalty")
	for _, p := range pts {
		fmt.Fprintf(w, "%-18s %14d %16d %9.2fx\n", p.Design, p.CLWBCycles, p.CLFLUSHOPTCycles, p.Penalty)
	}
}

// HOPSBufferPoint is one HOPS persist-buffer-capacity measurement.
type HOPSBufferPoint struct {
	Entries int
	Cycles  uint64
}

// HOPSBufferAblation sweeps the HOPS persist-buffer capacity, probing
// how much of HOPS's deficit is capacity versus epoch serialisation.
func HOPSBufferAblation(o ExpOptions, sizes []int) ([]HOPSBufferPoint, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64}
	}
	var cells []sweep.Cell[*Result]
	for _, n := range sizes {
		cfg := config.Default()
		cfg.HOPSPersistBufferEntries = n
		cells = append(cells, measuredCell(fmt.Sprintf("hopsbuf/%d", n),
			Spec{Benchmark: "nstore-wr", Model: langmodel.SFR, Design: hwdesign.HOPS,
				Threads: o.Threads, OpsPerThread: o.OpsPerThread, Seed: o.Seed, Cfg: &cfg, Controllers: o.Controllers}))
	}
	results, err := sweep.Run(o.sweepOptions(), cells)
	if err != nil {
		return nil, err
	}
	out := make([]HOPSBufferPoint, len(sizes))
	for i, n := range sizes {
		out[i] = HOPSBufferPoint{Entries: n, Cycles: results[i].Cycles}
	}
	return out, nil
}

// PrintHOPSBufferAblation renders the HOPS buffer sweep.
func PrintHOPSBufferAblation(w io.Writer, pts []HOPSBufferPoint) {
	fmt.Fprintf(w, "Ablation: HOPS persist buffer capacity (nstore-wr, SFR)\n")
	fmt.Fprintf(w, "%-12s %14s\n", "entries", "cycles")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12d %14d\n", p.Entries, p.Cycles)
	}
}
