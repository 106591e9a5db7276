package harness

import (
	"testing"

	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
)

// BenchmarkGridCell measures one full grid cell end to end — machine
// construction, workload run, result extraction — the unit of work the
// sweep engine schedules. The engine-core rebuild targets exactly this
// path's steady-state allocation and switch overhead.
func BenchmarkGridCell(b *testing.B) {
	spec := Spec{Benchmark: "hashmap", Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
		Threads: 4, OpsPerThread: 50}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTortureSweep measures the experiments-scale torture sweep
// (threads and ops match the harness.Spec defaults used in
// EXPERIMENTS.md) over the default benchmark set, serially.
func BenchmarkTortureSweep(b *testing.B) {
	o := TortureOptions{Seed: 1, SkipLitmus: true, Parallel: 1,
		Threads: 8, OpsPerThread: 250, Crashes: 24}
	for i := 0; i < b.N; i++ {
		if _, err := Torture(o); err != nil {
			b.Fatal(err)
		}
	}
}
