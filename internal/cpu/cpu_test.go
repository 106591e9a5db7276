package cpu

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"strandweaver/internal/backend"
	"strandweaver/internal/cache"
	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
	"strandweaver/internal/trace"
)

// rig wires cores directly (without the machine package, which would be
// an import cycle for white-box tests).
type rig struct {
	eng   *sim.Engine
	m     *mem.Machine
	cores []*Core
	coros []*sim.Coroutine
}

func newRig(t *testing.T, cfg config.Config, d hwdesign.Design, n int) *rig {
	t.Helper()
	cfg.Cores = n
	eng := sim.NewEngine()
	m := mem.NewMachine()
	ctrl := pmem.NewTopology(eng, cfg, m, false)
	hier := cache.NewHierarchy(eng, cfg, m, ctrl)
	r := &rig{eng: eng, m: m}
	for i := 0; i < n; i++ {
		c, err := NewCore(i, eng, cfg, d, m, hier.L1(i), ctrl)
		if err != nil {
			t.Fatal(err)
		}
		hier.SetGate(i, c.PersistGate())
		r.cores = append(r.cores, c)
	}
	return r
}

func (r *rig) spawn(i int, body func(c *Core)) {
	c := r.cores[i]
	co := sim.NewCoroutine(r.eng, func(_ *sim.Coroutine) { body(c) })
	c.Attach(co)
	r.coros = append(r.coros, co)
	r.eng.ScheduleResume(sim.Cycle(i), co)
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	r.eng.Run(200_000_000)
	for _, co := range r.coros {
		if !co.Done() {
			t.Fatal("worker deadlocked")
		}
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 1)
	addr := mem.PMBase + 8
	r.spawn(0, func(c *Core) {
		c.Store64(addr, 1234)
		if got := c.Load64(addr); got != 1234 {
			t.Errorf("forwarded load = %d", got)
		}
		c.DrainAll()
		if got := c.Load64(addr); got != 1234 {
			t.Errorf("post-drain load = %d", got)
		}
	})
	r.run(t)
	if r.m.Volatile.Read64(addr) != 1234 {
		t.Error("store not visible in functional memory")
	}
}

func TestStore32Load32(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 1)
	addr := mem.PMBase + 16
	r.spawn(0, func(c *Core) {
		c.Store32(addr, 0xABCD)
		if got := c.Load32(addr); got != 0xABCD {
			t.Errorf("Load32 = %#x", got)
		}
	})
	r.run(t)
}

func TestTSOStoreVisibilityOrder(t *testing.T) {
	// Message passing: T0 stores data then flag; T1 spins on flag and
	// must observe data (stores drain in order).
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 2)
	data := mem.PMBase + 0x100
	flag := mem.DRAMBase + 0x100
	var seen uint64
	r.spawn(0, func(c *Core) {
		c.Store64(data, 77)
		c.Store64(flag, 1)
	})
	r.spawn(1, func(c *Core) {
		for c.Load64(flag) == 0 {
			c.Compute(30)
		}
		seen = c.Load64(data)
	})
	r.run(t)
	if seen != 77 {
		t.Errorf("T1 observed %d; store order violated", seen)
	}
}

func TestCAS64Semantics(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 1)
	addr := mem.DRAMBase + 0x40
	r.spawn(0, func(c *Core) {
		if !c.CAS64(addr, 0, 5) {
			t.Error("CAS on zero failed")
		}
		if c.CAS64(addr, 0, 9) {
			t.Error("CAS with stale expected succeeded")
		}
		if got := c.Load64(addr); got != 5 {
			t.Errorf("after CAS = %d", got)
		}
		if got := c.AtomicAdd64(addr, 3); got != 8 {
			t.Errorf("AtomicAdd returned %d", got)
		}
	})
	r.run(t)
}

func TestLockMutualExclusion(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 4)
	lock := mem.DRAMBase + 0x200
	counter := mem.DRAMBase + 0x240
	for i := 0; i < 4; i++ {
		r.spawn(i, func(c *Core) {
			for k := 0; k < 10; k++ {
				c.Lock(lock)
				v := c.Load64(counter)
				c.Compute(17) // widen the race window
				c.Store64(counter, v+1)
				c.Unlock(lock)
			}
		})
	}
	r.run(t)
	// Drain residual stores.
	if got := r.m.Volatile.Read64(counter); got != 40 {
		t.Errorf("counter = %d, want 40 (lost update => broken lock)", got)
	}
}

// TestTraceLockAndLoad32: a traced Lock records its test load and its
// CAS as an RMW that read the free lock, AtomicAdd64 an RMW that read
// the old value, and Load32 a load.
func TestTraceLockAndLoad32(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 1)
	rec := trace.New()
	r.cores[0].SetTracer(rec)
	lock := mem.DRAMBase + 0x200
	word := mem.DRAMBase + 0x240
	r.spawn(0, func(c *Core) {
		c.Lock(lock)
		c.AtomicAdd64(word, 5)
		c.Load32(word)
	})
	r.run(t)
	type op struct {
		kind isa.OpKind
		addr mem.Addr
		val  uint64
	}
	var got []op
	for _, e := range rec.Events() {
		got = append(got, op{e.Kind, e.Addr, e.Value})
	}
	want := []op{{isa.OpLoad, lock, 0}, {isa.OpRMW, lock, 0}, {isa.OpRMW, word, 0}, {isa.OpLoad, word, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trace %v, want %v", got, want)
	}
	if s := rec.ByKind(isa.OpRMW)[0].String(); !strings.Contains(s, "RMW") || !strings.Contains(s, "val=0") {
		t.Errorf("RMW trace line %q", s)
	}
}

func TestSFenceWaitsForFlushCompletion(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.IntelX86, 1)
	addr := mem.PMBase + 0x300
	r.spawn(0, func(c *Core) {
		c.Store64(addr, 9)
		c.CLWB(addr)
		c.SFence()
		// Paper semantics: at SFENCE completion prior CLWBs are done.
		if got := r.m.Persistent.Read64(addr); got != 9 {
			t.Errorf("persistent = %d at SFENCE return, want 9", got)
		}
		if c.Stats().StallFenceCycles == 0 {
			t.Error("SFENCE did not stall the front-end")
		}
	})
	r.run(t)
}

func TestPersistBarrierDoesNotStallFrontEnd(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 1)
	addr := mem.PMBase + 0x400
	r.spawn(0, func(c *Core) {
		c.Store64(addr, 1)
		c.CLWB(addr)
		before := r.eng.Now()
		c.PersistBarrier()
		elapsed := uint64(r.eng.Now() - before)
		if elapsed > 4 {
			t.Errorf("PersistBarrier took %d front-end cycles; must not stall", elapsed)
		}
		c.JoinStrand()
	})
	r.run(t)
}

func TestJoinStrandDurability(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 1)
	a, b := mem.PMBase+0x500, mem.PMBase+0x540
	r.spawn(0, func(c *Core) {
		c.NewStrand()
		c.Store64(a, 1)
		c.CLWB(a)
		c.NewStrand()
		c.Store64(b, 2)
		c.CLWB(b)
		c.JoinStrand()
		if r.m.Persistent.Read64(a) != 1 || r.m.Persistent.Read64(b) != 2 {
			t.Error("JoinStrand returned before both strands persisted")
		}
	})
	r.run(t)
}

func TestWrongDesignPrimitiveErrors(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.IntelX86, 1)
	r.spawn(0, func(c *Core) {
		err := c.PersistBarrier()
		var unavail *backend.ErrPrimitiveUnavailable
		if !errors.As(err, &unavail) {
			t.Errorf("PersistBarrier on Intel = %v, want ErrPrimitiveUnavailable", err)
			return
		}
		if unavail.Design != hwdesign.IntelX86 {
			t.Errorf("error names design %s", unavail.Design)
		}
		// The failed issue must have no side effects.
		if c.Stats().Fences != 0 {
			t.Error("unavailable primitive counted as a fence")
		}
		if err := c.SFence(); err != nil {
			t.Errorf("SFence after failed PersistBarrier: %v", err)
		}
	})
	r.run(t)
}

func TestHOPSOFenceDelegates(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.HOPS, 1)
	a, b := mem.PMBase+0x600, mem.PMBase+0x640
	r.spawn(0, func(c *Core) {
		c.Store64(a, 1)
		c.CLWB(a)
		before := r.eng.Now()
		c.OFence()
		if uint64(r.eng.Now()-before) > 4 {
			t.Error("ofence stalled the core; ordering must be delegated")
		}
		c.Store64(b, 2)
		c.CLWB(b)
		c.DFence()
		// dfence is the durability point.
		if r.m.Persistent.Read64(a) != 1 || r.m.Persistent.Read64(b) != 2 {
			t.Error("dfence returned before drain")
		}
	})
	r.run(t)
}

// TestHOPSEpochOrdering: under HOPS, a persist after an ofence must not
// reach PM before persists of the prior epoch.
func TestHOPSEpochOrdering(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.HOPS, 1)
	a, b := mem.PMBase+0x700, mem.PMBase+0x740
	r.spawn(0, func(c *Core) {
		c.Store64(a, 1)
		c.CLWB(a)
		c.OFence()
		c.Store64(b, 2)
		c.CLWB(b)
	})
	// Watch every cycle: whenever B is persistent, A must be too.
	violated := false
	var watch func()
	watch = func() {
		if r.m.Persistent.Read64(mem.PMBase+0x740) == 2 && r.m.Persistent.Read64(mem.PMBase+0x700) != 1 {
			violated = true
		}
		if r.eng.Pending() > 0 {
			r.eng.Schedule(1, watch)
		}
	}
	r.eng.Schedule(0, watch)
	r.run(t)
	if violated {
		t.Error("epoch ordering violated: B persisted before A across an ofence")
	}
}

func TestStoreQueueFillStalls(t *testing.T) {
	cfg := config.Default()
	cfg.StoreQueueEntries = 4
	r := newRig(t, cfg, hwdesign.StrandWeaver, 1)
	r.spawn(0, func(c *Core) {
		for i := 0; i < 64; i++ {
			c.Store64(mem.PMBase+mem.Addr(i*8), uint64(i))
		}
		if c.Stats().StallQueueFullCycles == 0 {
			t.Error("no queue-full stalls with a 4-entry store queue and 64 stores")
		}
	})
	r.run(t)
}

// TestStrandWeaverStoreGating: a store after a persist barrier must not
// become visible before the prior CLWB has issued; with an artificially
// tiny strand buffer the CLWB's issue is delayed, and so is the store.
func TestStrandWeaverStoreGating(t *testing.T) {
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 1)
	logA := mem.PMBase + 0x800
	dataA := mem.PMBase + 0x840
	r.spawn(0, func(c *Core) {
		c.Store64(logA, 1)
		c.CLWB(logA)
		c.PersistBarrier()
		c.Store64(dataA, 2)
		c.CLWB(dataA)
		c.JoinStrand()
	})
	// Whenever dataA is persistent, logA must be persistent (pairwise
	// ordering through PB).
	violated := false
	var watch func()
	watch = func() {
		if r.m.Persistent.Read64(mem.PMBase+0x840) == 2 && r.m.Persistent.Read64(mem.PMBase+0x800) != 1 {
			violated = true
		}
		if r.eng.Pending() > 0 {
			r.eng.Schedule(1, watch)
		}
	}
	r.eng.Schedule(0, watch)
	r.run(t)
	if violated {
		t.Error("data persisted before its log despite persist barrier")
	}
}

func TestDrainedAccounting(t *testing.T) {
	for _, d := range hwdesign.All {
		d := d
		r := newRig(t, config.Default(), d, 1)
		r.spawn(0, func(c *Core) {
			c.Store64(mem.PMBase, 1)
			c.CLWB(mem.PMBase)
			c.DrainAll()
			if !c.Drained() {
				t.Errorf("%s: DrainAll returned with machinery busy", d)
			}
		})
		r.run(t)
	}
}

func TestCoreStatsAddMergeRule(t *testing.T) {
	a := Stats{Loads: 3, Stores: 5, CLWBs: 1, Fences: 2, StallFenceCycles: 10, BusyUntil: 100}
	b := Stats{Loads: 7, Stores: 1, RMWs: 4, StallQueueFullCycles: 6, BusyUntil: 40}
	sum := a
	sum.Add(b)
	if sum.Loads != 10 || sum.Stores != 6 || sum.CLWBs != 1 || sum.RMWs != 4 || sum.Fences != 2 {
		t.Errorf("counters did not sum: %+v", sum)
	}
	if sum.StallFenceCycles != 10 || sum.StallQueueFullCycles != 6 {
		t.Errorf("stall counters did not sum: %+v", sum)
	}
	if sum.BusyUntil != 100 {
		t.Errorf("BusyUntil = %d, want max 100", sum.BusyUntil)
	}
	sum2 := b
	sum2.Add(a)
	if sum2.BusyUntil != 100 {
		t.Errorf("BusyUntil (reversed) = %d, want max 100", sum2.BusyUntil)
	}
}
