package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"strandweaver/internal/cpu"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// snapWorkload returns a two-core workload exercising stores, flushes,
// design-appropriate ordering primitives, and lock contention.
func snapWorkload(d hwdesign.Design, iters int) []Worker {
	lock := mem.DRAMBase + 64
	shared := mem.PMBase
	worker := func(id int) Worker {
		return func(c *cpu.Core) {
			private := mem.PMBase + 4096 + mem.Addr(id)*2048
			for i := 0; i < iters; i++ {
				c.Lock(lock)
				v := c.Load64(shared)
				c.Store64(shared, v+1)
				c.CLWB(shared)
				c.Unlock(lock)
				pa := private + mem.Addr((i%8)*64)
				c.Store64(pa, uint64(i))
				c.CLWB(pa)
				switch d {
				case hwdesign.IntelX86, hwdesign.NonAtomic:
					c.SFence()
				case hwdesign.HOPS:
					c.OFence()
					c.DFence()
				default:
					c.PersistBarrier()
					c.JoinStrand()
				}
			}
			c.DrainAll()
		}
	}
	return []Worker{worker(0), worker(1)}
}

// observe extracts everything a post-crash query can read from a
// system: the persistent image, the unaccepted write stream and each
// controller's accepted-in-flight writes and PM statistics. Engine event
// counters are excluded deliberately — the capture run schedules one
// more harness event than the cold run (the snapshot itself), which is
// visible in scheduling statistics but in no machine state
// (docs/SNAPSHOT.md states the argument).
type observed struct {
	Now        sim.Cycle
	Persistent *mem.Image
	PM         *pmem.TopologyState
}

func observe(s *System) observed {
	return observed{
		Now:        s.Eng.Now(),
		Persistent: s.Mem.Persistent.Freeze(),
		PM:         s.PM.Snapshot(),
	}
}

// coldAt runs the workload on a fresh system and abandons it at cut,
// exactly as the crash-cut differential tests' cold reference does.
func coldAt(t *testing.T, d hwdesign.Design, cut sim.Cycle) *System {
	t.Helper()
	s := MustNew(smallConfig(), d)
	s.RunAt(cut, s.Abandon)
	_, _ = s.Run(snapWorkload(d, 30), 10_000_000)
	return s
}

// captureAt runs the workload on a fresh system, snapshots at cut, and
// returns the checkpoint (abandoning right after, as the prefix capture
// run does).
func captureAt(t *testing.T, d hwdesign.Design, cut sim.Cycle) *Checkpoint {
	t.Helper()
	s := MustNew(smallConfig(), d)
	var cp *Checkpoint
	s.RunAt(cut, func() { cp = s.Snapshot() })
	s.RunAt(cut, s.Abandon)
	_, _ = s.Run(snapWorkload(d, 30), 10_000_000)
	if cp == nil {
		t.Fatalf("%s: run ended before cut %d", d, cut)
	}
	return cp
}

// TestSnapshotColdVsRestoredAllDesigns is the cold-vs-restored
// differential for every backend design: the state captured at a cut
// and restored into a fresh system must be indistinguishable from a
// cold run abandoned at the same cut.
func TestSnapshotColdVsRestoredAllDesigns(t *testing.T) {
	for _, d := range hwdesign.All {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			for _, cut := range []sim.Cycle{500, 5_000, 20_000} {
				cold := observe(coldAt(t, d, cut))
				cp := captureAt(t, d, cut)
				warm := MustNew(smallConfig(), d)
				warm.Restore(cp)
				got := observe(warm)
				if !reflect.DeepEqual(cold, got) {
					t.Errorf("cut %d: restored state differs from cold run\ncold: %+v\nwarm: %+v",
						cut, cold, got)
				}
				// Restore must not alias the checkpoint: restoring a second
				// system from the same checkpoint and mutating it must leave
				// the first restore unchanged.
				warm2 := MustNew(smallConfig(), d)
				warm2.Restore(cp)
				warm2.Mem.Persistent.SetByte(mem.PMBase, 0xEE)
				if got2 := observe(warm); !reflect.DeepEqual(cold, got2) {
					t.Errorf("cut %d: mutating a sibling restore leaked into the first", cut)
				}
			}
		})
	}
}

// TestSnapshotRandomForkPoints hammers the same equivalence at seeded
// random cut cycles, including cuts past the workload's natural end
// (where the snapshot captures a finished, quiescent machine).
func TestSnapshotRandomForkPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		d := hwdesign.All[rng.Intn(len(hwdesign.All))]
		cut := sim.Cycle(1 + rng.Intn(60_000))
		cold := observe(coldAt(t, d, cut))
		cp := captureAt(t, d, cut)
		warm := MustNew(smallConfig(), d)
		warm.Restore(cp)
		if got := observe(warm); !reflect.DeepEqual(cold, got) {
			t.Errorf("trial %d (%s, cut %d): restored state differs from cold run", trial, d, cut)
		}
	}
}

// TestConcurrentRestoreSharedCheckpoint: one checkpoint may feed many
// systems at once — its frozen COW images are never written by a
// restore, so concurrent restores (the parallel torture sweep's and
// fuzz executor's pattern) are race-free. Each goroutine also mutates
// its own restored system between restores, which must neither
// corrupt the checkpoint nor leak into sibling systems. Run under
// -race in CI.
func TestConcurrentRestoreSharedCheckpoint(t *testing.T) {
	d := hwdesign.StrandWeaver
	cp := captureAt(t, d, 5_000)
	ref := MustNew(smallConfig(), d)
	ref.Restore(cp)
	want := ref.Mem.Persistent.Fingerprint()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := MustNew(smallConfig(), d)
			for r := 0; r < 20; r++ {
				s.Restore(cp)
				s.Mem.Persistent.SetByte(mem.PMBase+mem.Addr(g)*64, byte(r)) // diverge, then rewind
			}
			s.Restore(cp)
			if s.Mem.Persistent.Fingerprint() != want {
				errs <- fmt.Sprintf("goroutine %d: restored fingerprint diverged", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if ref.Mem.Persistent.Fingerprint() != want {
		t.Error("concurrent restores mutated a sibling restored system")
	}
}
