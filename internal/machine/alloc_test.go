package machine

import (
	"runtime"
	"runtime/debug"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
)

// loopBarriers are the ordering primitives each design's worker loop
// issues, in order: the first after the first CLWB, the rest after the
// second.
var loopBarriers = map[hwdesign.Design][]isa.OpKind{
	hwdesign.IntelX86:       {isa.OpSFence},
	hwdesign.HOPS:           {isa.OpOFence, isa.OpDFence},
	hwdesign.NoPersistQueue: {isa.OpPersistBarrier, isa.OpNewStrand, isa.OpJoinStrand},
	hwdesign.StrandWeaver:   {isa.OpPersistBarrier, isa.OpNewStrand, isa.OpJoinStrand},
	hwdesign.NonAtomic:      {isa.OpSFence},
	hwdesign.EADR:           {isa.OpSFence},
}

// loopLine returns the i-th line of the worker loop: three lines that
// share an L1 set, so the 2-way L1 misses and writes back dirty lines
// on every pass.
func loopLine(cfg config.Config, i int) mem.Addr {
	return mem.PMBase + mem.Addr(i%3)*mem.Addr(cfg.L1Sets)*mem.LineSize
}

// workerAllocs runs iteration warm times on core 0 of a fresh system,
// then n more times, and returns the heap allocations per measured
// iteration.
//
// The count is process-wide, so nothing else may allocate in the
// window. The test runner's own goroutine is the one thing that did:
// having started the test, it parks in T.Run waiting for it, and that
// first park allocates a sudog. Under the race detector's randomized
// scheduler it was sometimes delayed into the window (1 in about 30
// fresh -race processes, always the first design). A collection first
// lets every runnable goroutine reach its park while this one waits,
// and holding the collector off keeps a cycle from starting (and
// clearing the runtime's caches) mid-window.
func workerAllocs(t *testing.T, d hwdesign.Design, warm, n int, iteration func(c *cpu.Core, i int)) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	s := MustNew(config.Default(), d)
	if _, err := s.Run([]Worker{func(c *cpu.Core) {
		for i := 0; i < warm; i++ {
			iteration(c, i)
		}
		runtime.ReadMemStats(&before)
		for i := warm; i < warm+n; i++ {
			iteration(c, i)
		}
		runtime.ReadMemStats(&after)
	}}, 0); err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// A raw-core worker loop — loads, stores, CLWBs and the design's
// ordering primitives, missing in the L1 and writing back through the
// persist gates — allocates nothing per iteration on any design once
// warm: the store queue, persist queue, strand buffers, caches and PM
// controller all recycle their records.
func TestWorkerLoopZeroAlloc(t *testing.T) {
	cfg := config.Default()
	for _, d := range hwdesign.All {
		barriers := loopBarriers[d]
		got := workerAllocs(t, d, 200, 500, func(c *cpu.Core, i int) {
			a, b := loopLine(cfg, i), loopLine(cfg, i+1)
			c.Store64(a, uint64(i))
			c.CLWB(a)
			if err := c.Issue(barriers[0]); err != nil {
				t.Error(err)
			}
			c.Store64(b, uint64(i))
			c.CLWB(b)
			for _, k := range barriers[1:] {
				if err := c.Issue(k); err != nil {
					t.Error(err)
				}
			}
			_ = c.Load64(loopLine(cfg, i+2))
		})
		if got != 0 {
			t.Errorf("%s: worker loop allocated %.2f times per iteration, want 0", d, got)
		}
	}
}

// newBudget bounds what machine.New allocates: construction costs what
// a run touches, not the configured cache geometry.
const newBudget = 32 << 10

func TestNewAllocBudget(t *testing.T) {
	for _, d := range hwdesign.All {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := New(config.Default(), d)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(s)
		if got := after.TotalAlloc - before.TotalAlloc; got > newBudget {
			t.Errorf("%s: machine.New allocated %d bytes, want at most %d", d, got, newBudget)
		}
	}
}

// BenchmarkMachineNew measures building a Table I machine.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(config.Default(), hwdesign.StrandWeaver); err != nil {
			b.Fatal(err)
		}
	}
}
