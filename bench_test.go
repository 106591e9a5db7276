// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each iteration runs a scaled-down instance of
// the corresponding experiment; `go test -bench=. -benchmem` therefore
// regenerates every artifact's measurement path. Full-scale numbers
// (with per-cell tables) come from `go run ./cmd/strandweaver all`.
package strandweaver_test

import (
	"fmt"
	"testing"

	sw "strandweaver"
)

const (
	benchThreads = 8
	benchOps     = 60
)

// reportShape attaches simulator-level metrics to the benchmark output.
func reportShape(b *testing.B, name string, v float64) {
	b.ReportMetric(v, name)
}

// BenchmarkTable2 regenerates the Table II write-intensity measurement
// (CKC under the non-atomic design) for the full benchmark suite.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sw.Table2(sw.ExpOptions{Threads: benchThreads, OpsPerThread: benchOps})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				reportShape(b, "ckc:"+r.Benchmark, r.CKC)
			}
		}
	}
}

// benchmarkFig7Cell measures one benchmark under one design (SFR model)
// and reports simulated cycles; sub-benchmarks cover the Figure 7 grid.
func benchmarkFig7Cell(b *testing.B, bench string, d sw.Design) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := sw.Run(sw.Spec{Benchmark: bench, Model: sw.SFR, Design: d,
			Threads: benchThreads, OpsPerThread: benchOps})
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Cycles
	}
	reportShape(b, "simcycles", float64(cycles))
}

// BenchmarkFig7 regenerates the Figure 7 speedup comparison: every
// benchmark under every hardware design.
func BenchmarkFig7(b *testing.B) {
	for _, bench := range sw.BenchmarkNames() {
		for _, d := range sw.AllDesigns {
			b.Run(fmt.Sprintf("%s/%s", bench, d), func(b *testing.B) {
				benchmarkFig7Cell(b, bench, d)
			})
		}
	}
}

// BenchmarkFig8 regenerates the Figure 8 stall measurement: persist
// stall cycles under Intel x86 versus StrandWeaver.
func BenchmarkFig8(b *testing.B) {
	for _, d := range []sw.Design{sw.IntelX86, sw.StrandWeaver} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			var stalls uint64
			for i := 0; i < b.N; i++ {
				r, err := sw.Run(sw.Spec{Benchmark: "nstore-wr", Model: sw.SFR, Design: d,
					Threads: benchThreads, OpsPerThread: benchOps})
				if err != nil {
					b.Fatal(err)
				}
				stalls = r.CoreTotals.PersistStallCycles()
			}
			reportShape(b, "persist-stall-cycles", float64(stalls))
		})
	}
}

// BenchmarkFig9 regenerates the strand-buffer-unit sensitivity sweep.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := sw.Fig9(sw.ExpOptions{Threads: benchThreads, OpsPerThread: 40,
			Benchmarks: []string{"hashmap", "nstore-wr"}})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				reportShape(b, fmt.Sprintf("speedup:%dx%d", p.Buffers, p.Entries), p.GeoSpeedup)
			}
		}
	}
}

// BenchmarkFig10 regenerates the operations-per-SFR sweep.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := sw.Fig10(sw.ExpOptions{Threads: benchThreads, OpsPerThread: 64}, []int{2, 8, 32})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				reportShape(b, fmt.Sprintf("speedup:%dops", p.OpsPerSFR), p.GeoSpeedup)
			}
		}
	}
}

// BenchmarkHeadlineClaims runs a reduced Figure 7 grid and reports the
// paper's headline ratios as metrics.
func BenchmarkHeadlineClaims(b *testing.B) {
	var cl struct {
		swIntel, swHOPS, noPQ float64
	}
	for i := 0; i < b.N; i++ {
		g, err := sw.RunGrid(sw.ExpOptions{Threads: benchThreads, OpsPerThread: 40,
			Benchmarks: []string{"hashmap", "nstore-wr", "arrayswap"}})
		if err != nil {
			b.Fatal(err)
		}
		c := sw.ComputeClaims(g)
		cl.swIntel, cl.swHOPS, cl.noPQ = c.SWvsIntelGeo, c.SWvsHOPSGeo, c.NoPQvsIntelGeo
	}
	reportShape(b, "sw-vs-intel", cl.swIntel)
	reportShape(b, "sw-vs-hops", cl.swHOPS)
	reportShape(b, "nopq-vs-intel", cl.noPQ)
}

// BenchmarkLitmusFigure2 measures the litmus cross-validation harness
// (Figure 2 shapes against the formal model).
func BenchmarkLitmusFigure2(b *testing.B) {
	p := sw.LitmusProgram{{sw.LSt(0, 1), sw.LPB(), sw.LSt(1, 1), sw.LNS(), sw.LSt(2, 1)}}
	for i := 0; i < b.N; i++ {
		if _, err := sw.CheckLitmus(p, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrashRecovery measures a full crash + recovery + verify round
// trip (Figure 6 machinery).
func BenchmarkCrashRecovery(b *testing.B) {
	spec := sw.Spec{Benchmark: "hashmap", Model: sw.SFR, Design: sw.StrandWeaver,
		Threads: 4, OpsPerThread: 20}
	for i := 0; i < b.N; i++ {
		eighth := func(end sw.Cycle) []sw.Cycle { return []sw.Cycle{end * sw.Cycle(i%7+1) / 8} }
		if _, err := sw.RunWithCrash(spec, eighth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput reports raw simulation speed (simulated
// cycles per wall second) on the write-heavy KV workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := sw.Run(sw.Spec{Benchmark: "nstore-wr", Model: sw.SFR, Design: sw.StrandWeaver,
			Threads: benchThreads, OpsPerThread: benchOps})
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Cycles
	}
	reportShape(b, "simcycles/op", float64(cycles)/float64(b.N))
}
