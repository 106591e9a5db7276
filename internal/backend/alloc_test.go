package backend_test

import (
	"runtime"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
)

// coreAllocs runs iteration 200 times on core 0 of a fresh system, then
// 500 more times, and returns the heap allocations per measured
// iteration.
func coreAllocs(t *testing.T, d hwdesign.Design, iteration func(c *cpu.Core)) float64 {
	t.Helper()
	const warm, n = 200, 500
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	sys := machine.MustNew(config.Default(), d)
	if _, err := sys.Run([]machine.Worker{func(c *cpu.Core) {
		for i := 0; i < warm; i++ {
			iteration(c)
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			iteration(c)
		}
		runtime.ReadMemStats(&after)
	}}, 0); err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// The persist paths allocate nothing per operation in steady state: a
// HOPS CLWB held behind its same-line store, a no-persist-queue CLWB
// travelling through the store queue, and a StrandWeaver store gated on
// an unissued persist barrier.
func TestPersistPathsZeroAlloc(t *testing.T) {
	a, b := mem.PMBase, mem.PMBase+mem.LineSize
	cases := []struct {
		name      string
		d         hwdesign.Design
		iteration func(c *cpu.Core)
	}{
		{"hops CLWB", hwdesign.HOPS, func(c *cpu.Core) {
			c.Store64(a, 1)
			c.CLWB(a)
			c.OFence()
			c.DFence()
		}},
		{"no-persist-queue CLWB", hwdesign.NoPersistQueue, func(c *cpu.Core) {
			c.Store64(a, 1)
			c.CLWB(a)
			c.PersistBarrier()
			c.JoinStrand()
		}},
		{"strandweaver gated store", hwdesign.StrandWeaver, func(c *cpu.Core) {
			c.Store64(a, 1)
			c.CLWB(a)
			c.PersistBarrier()
			c.Store64(b, 2)
			c.CLWB(b)
			c.JoinStrand()
		}},
	}
	for _, tc := range cases {
		if got := coreAllocs(t, tc.d, tc.iteration); got != 0 {
			t.Errorf("%s allocated %.2f times per iteration, want 0", tc.name, got)
		}
	}
}
