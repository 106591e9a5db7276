package workloads

import (
	"strandweaver/internal/cpu"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/pds"
	"strandweaver/internal/undolog"
)

// BatchedSwapWL is the Figure 10 workload: each failure-atomic region
// performs a configurable number of independent element swaps, varying
// the persist concurrency available inside one SFR.
type BatchedSwapWL struct {
	common
	a            *pds.Array
	n            uint64
	OpsPerRegion int
}

// NewBatchedSwap builds the Figure 10 workload with the given region
// size (mutation pairs per region).
func NewBatchedSwap(p Params, opsPerRegion int) *BatchedSwapWL {
	if opsPerRegion < 1 {
		opsPerRegion = 1
	}
	return &BatchedSwapWL{common: common{p: p}, n: 8192, OpsPerRegion: opsPerRegion}
}

// Name identifies the workload with its region size.
func (w *BatchedSwapWL) Name() string { return "batched-swap" }

// Setup lays out the array host-side.
func (w *BatchedSwapWL) Setup(s *machine.System, rt *langmodel.Runtime) {
	w.setupCommon(rt)
	h := pds.Host{Sys: s}
	w.a = pds.NewArray(h, w.arena, w.n)
	h.Write64(undolog.RootAddr(0), uint64(w.a.Base()))
}

// Worker swaps OpsPerRegion random pairs per region. Each thread owns a
// disjoint segment (segment locks never contend), isolating the
// intra-region persist-concurrency effect the figure studies.
func (w *BatchedSwapWL) Worker(tid int) machine.Worker {
	return func(c *cpu.Core) {
		r := rng(w.p, tid)
		seg := w.n / uint64(w.p.Threads)
		base := uint64(tid) * seg
		for i := 0; i < w.p.OpsPerThread; i += w.OpsPerRegion {
			w.rt.Region(c, []mem.Addr{lockAddr(tid)}, func(tx *langmodel.Tx) {
				for k := 0; k < w.OpsPerRegion; k++ {
					x := base + r.Uint64()%seg
					y := base + r.Uint64()%seg
					w.a.Swap(tx, x, y)
				}
			})
		}
		w.rt.Finish(c)
	}
}

// Verify checks the permutation invariant.
func (w *BatchedSwapWL) Verify(img *mem.Image) error {
	return pds.VerifyArray(img, w.a.Base(), w.n)
}
