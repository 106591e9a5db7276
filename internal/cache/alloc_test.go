package cache

import (
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// drainedGate is a persist gate with nothing in flight: it hands every
// callback to the engine at once, as the strand buffer unit does for a
// token it has already retired past, and allocates nothing itself.
type drainedGate struct{ eng *sim.Engine }

func (g drainedGate) RecordTails() GateToken                 { return GateToken{} }
func (g drainedGate) CallWhenDrained(_ GateToken, cb func()) { g.eng.Schedule(0, cb) }

// tinyCfg is a hierarchy whose L1s and L2 hold one line each, so two
// lines that alternate miss in both on every access.
func tinyCfg() config.Config {
	cfg := smallCfg()
	cfg.L1Sets, cfg.L1Ways = 1, 1
	cfg.L2Sets, cfg.L2Ways = 1, 1
	return cfg
}

// assertZeroAllocs runs round after a warm-up and fails unless it
// allocates nothing.
func assertZeroAllocs(t *testing.T, name string, round func()) {
	t.Helper()
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("%s allocated %.1f times per round, want 0", name, n)
	}
}

// The hierarchy's steady state allocates nothing: hits, misses,
// coalesced misses, gated ownership transfers, flushes and gated
// write-backs all run on pooled records with thunks built once.
func TestCachePathsZeroAlloc(t *testing.T) {
	nop := func() {}
	a, b := mem.PMBase, mem.PMBase+mem.LineSize

	t.Run("hits", func(t *testing.T) {
		eng, h, _ := newHier(smallCfg())
		l1 := h.L1(0)
		l1.Store(a, nop)
		eng.Run(0)
		assertZeroAllocs(t, "load hit", func() {
			l1.Load(a, nop)
			eng.Run(0)
		})
		assertZeroAllocs(t, "store hit", func() {
			l1.Store(a, nop)
			eng.Run(0)
		})
	})

	t.Run("misses", func(t *testing.T) {
		eng, h, _ := newHier(tinyCfg())
		l1 := h.L1(0)
		assertZeroAllocs(t, "load miss", func() {
			l1.Load(a, nop)
			eng.Run(0)
			l1.Load(b, nop)
			eng.Run(0)
		})
		assertZeroAllocs(t, "store miss", func() {
			l1.Store(a, nop)
			eng.Run(0)
			l1.Store(b, nop)
			eng.Run(0)
		})
		assertZeroAllocs(t, "coalesced miss", func() {
			l1.Load(a, nop)
			l1.Store(a, nop)
			l1.Store(a, nop)
			l1.Load(a, nop)
			eng.Run(0)
			l1.Store(b, nop)
			eng.Run(0)
		})
	})

	t.Run("gated transfer", func(t *testing.T) {
		eng, h, _ := newHier(smallCfg())
		h.SetGate(0, drainedGate{eng})
		h.SetGate(1, drainedGate{eng})
		h.Preload(a)
		assertZeroAllocs(t, "remote-owner transfer", func() {
			h.L1(0).Store(a, nop)
			eng.Run(0)
			h.L1(1).Store(a, nop)
			eng.Run(0)
		})
		if h.Stats().SnoopGateWaits == 0 {
			t.Error("no transfer went through the persist gate")
		}
	})

	t.Run("flush", func(t *testing.T) {
		eng, h, _ := newHier(smallCfg())
		l1 := h.L1(0)
		assertZeroAllocs(t, "dirty flush", func() {
			l1.Store(a, nop)
			eng.Run(0)
			l1.Flush(a, nop)
			eng.Run(0)
		})
		assertZeroAllocs(t, "clean flush", func() {
			l1.Flush(a, nop)
			eng.Run(0)
		})
	})

	t.Run("gated write-back", func(t *testing.T) {
		cfg := smallCfg()
		cfg.L1Sets, cfg.L1Ways = 1, 1
		eng, h, _ := newHier(cfg)
		h.SetGate(0, drainedGate{eng})
		l1 := h.L1(0)
		assertZeroAllocs(t, "gated write-back", func() {
			l1.Store(a, nop)
			eng.Run(0)
			l1.Store(b, nop)
			eng.Run(0)
		})
		if h.Stats().WritebackGateWaits == 0 {
			t.Error("no write-back went through the persist gate")
		}
	})
}

// BenchmarkL1StoreMiss measures a store that misses in the L1 and the
// L2 and fills from PM: the MSHR, directory, L2 and controller read
// path, after a warm-up so that even a one-iteration run reports the
// steady-state allocations.
func BenchmarkL1StoreMiss(b *testing.B) {
	eng, h, _ := newHier(tinyCfg())
	l1 := h.L1(0)
	nop := func() {}
	lines := [2]mem.Addr{mem.PMBase, mem.PMBase + mem.LineSize}
	miss := func(i int) {
		l1.Store(lines[i&1], nop)
		eng.Run(0)
	}
	// The first L2 write-back, and with it the controller's write path,
	// comes on the third miss.
	for i := 0; i < 4; i++ {
		miss(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss(i)
	}
}
