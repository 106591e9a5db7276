package faultinject

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
	"strandweaver/internal/undolog"
)

func newSys(threads int) *machine.System {
	cfg := config.Default()
	cfg.Cores = threads
	return machine.MustNew(cfg, hwdesign.StrandWeaver)
}

var cells = []mem.Addr{
	mem.PMBase + undolog.HeapOffset,
	mem.PMBase + undolog.HeapOffset + 64,
	mem.PMBase + undolog.HeapOffset + 128,
}

func seed(s *machine.System, a mem.Addr, v uint64) {
	s.Mem.Volatile.Write64(a, v)
	s.Mem.Persistent.Write64(a, v)
	s.Hier.Preload(mem.LineAddr(a))
}

// loggedWorker mutates cells through the undo log: each mutation is
// individually failure-atomic, so after recovery every cell must hold
// either its old or its new value.
func loggedWorker(l *undolog.Log, rounds int) machine.Worker {
	return func(c *cpu.Core) {
		for r := 1; r <= rounds; r++ {
			for i, a := range cells {
				l.LoggedStore(c, a, uint64(r*100+i))
			}
			l.CommitUpTo(c, l.Tail())
		}
		c.DrainAll()
	}
}

// verifyCells checks the failure-atomicity invariant: each cell holds
// some round's value (or the initial one), never a torn word.
func verifyCells(t *testing.T, img *mem.Image, rounds int, ctx string) {
	t.Helper()
	for i, a := range cells {
		v := img.Read64(a)
		ok := v == uint64(i+1) // initial
		for r := 1; r <= rounds && !ok; r++ {
			ok = v == uint64(r*100+i)
		}
		if !ok {
			t.Fatalf("%s: cell %d holds %d, not any round's value", ctx, i, v)
		}
	}
}

// TestDeterministicCrashImages: same seed, same crash cycle -> byte
// identical crash image and identical injector stats.
func TestDeterministicCrashImages(t *testing.T) {
	plan := Plan{Seed: 42, TornPersists: true, DropProb: 0.5,
		MediaFaultProb: 0.05, MediaDelayProb: 0.1, MediaDelayCycles: 300}
	run := func() (*mem.Image, Stats) {
		s := newSys(1)
		for i, a := range cells {
			seed(s, a, uint64(i+1))
		}
		logs := undolog.Init(s, 1, 64)
		fi := New(plan)
		fi.Arm(s)
		s.RunAt(2_000, s.Abandon) // mid-run: in-flight writes exist
		_, _ = s.Run([]machine.Worker{loggedWorker(logs.PerThread[0], 4)}, 100_000_000)
		return fi.CrashImage(s), fi.Stats()
	}
	img1, st1 := run()
	img2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverge: %+v vs %+v", st1, st2)
	}
	if !img1.Equal(img2) || img1.Fingerprint() != img2.Fingerprint() {
		t.Fatal("same-seed crash images differ")
	}
	// A different seed must (for this schedule) take different fault
	// decisions somewhere.
	plan.Seed = 43
	_, st3 := run()
	if st1 == st3 {
		t.Log("note: seeds 42 and 43 produced identical stats (possible but unlikely)")
	}
}

// crashFreeEnd measures the schedule length of loggedWorker so crash
// sweeps land inside the run, not after it.
func crashFreeEnd(t *testing.T, rounds int) sim.Cycle {
	t.Helper()
	s := newSys(1)
	for i, a := range cells {
		seed(s, a, uint64(i+1))
	}
	logs := undolog.Init(s, 1, 64)
	end, err := s.Run([]machine.Worker{loggedWorker(logs.PerThread[0], rounds)}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// TestTornImageRepairedByUndoRecovery is the subsystem's core
// soundness claim: sweeping crash cycles under aggressive tearing must
// produce at least one crash image with torn lines AND a torn log entry
// that recovery discards — and recovery must still restore the
// failure-atomicity invariant every single time.
func TestTornImageRepairedByUndoRecovery(t *testing.T) {
	const rounds = 4
	end := crashFreeEnd(t, rounds)
	tornImages, tornEntries := 0, 0
	for at := sim.Cycle(100); at <= end; at += 100 {
		s := newSys(1)
		for i, a := range cells {
			seed(s, a, uint64(i+1))
		}
		logs := undolog.Init(s, 1, 64)
		fi := New(Plan{Seed: uint64(at), TornPersists: true, DropProb: 0.5})
		fi.Arm(s)
		s.RunAt(at, s.Abandon)
		_, _ = s.Run([]machine.Worker{loggedWorker(logs.PerThread[0], rounds)}, 100_000_000)
		img := fi.CrashImage(s)
		if fi.Stats().TornLines > 0 {
			tornImages++
		}
		rep, err := undolog.Recover(img, 1)
		if err != nil {
			t.Fatalf("crash at %d: %v", at, err)
		}
		tornEntries += rep.TornDiscarded
		verifyCells(t, img, rounds, "after recovery")
	}
	if tornImages == 0 {
		t.Fatal("sweep produced no torn crash image")
	}
	if tornEntries == 0 {
		t.Fatal("sweep never tore a log entry (checksum scrub unexercised)")
	}
	t.Logf("%d torn images, %d torn log entries discarded, all repaired", tornImages, tornEntries)
}

// TestTearAcceptedTearsMore: the beyond-ADR mode must actually revert
// accepted in-flight words (its whole point), visible as AcceptedTorn.
func TestTearAcceptedTearsMore(t *testing.T) {
	end := crashFreeEnd(t, 4)
	found := false
	for at := sim.Cycle(100); at <= end && !found; at += 100 {
		s := newSys(1)
		for i, a := range cells {
			seed(s, a, uint64(i+1))
		}
		logs := undolog.Init(s, 1, 64)
		fi := New(Plan{Seed: uint64(at), TornPersists: true, DropProb: 0.5, TearAccepted: true})
		fi.Arm(s)
		s.RunAt(at, s.Abandon)
		_, _ = s.Run([]machine.Worker{loggedWorker(logs.PerThread[0], 4)}, 100_000_000)
		fi.CrashImage(s)
		found = fi.Stats().AcceptedTorn > 0
	}
	if !found {
		t.Fatal("TearAccepted never tore an accepted write across the sweep")
	}
}

// TestMediaFaultsRetryAndSurface: injected media failures must show up
// in controller stats, writes must still drain (bounded retry), and the
// functional image must be unaffected (faults are transient).
func TestMediaFaultsRetryAndSurface(t *testing.T) {
	s := newSys(1)
	for i, a := range cells {
		seed(s, a, uint64(i+1))
	}
	logs := undolog.Init(s, 1, 64)
	fi := New(Plan{Seed: 7, MediaFaultProb: 0.3, MediaDelayProb: 0.2, MediaDelayCycles: 500})
	fi.Arm(s)
	if _, err := s.Run([]machine.Worker{loggedWorker(logs.PerThread[0], 4)}, 500_000_000); err != nil {
		t.Fatal(err)
	}
	cs := s.PM.Stats()
	if cs.MediaWriteFaults == 0 {
		t.Error("no media faults recorded despite 30% fault probability")
	}
	if cs.MediaFaultDelayCycles == 0 {
		t.Error("no injected delay recorded")
	}
	if cs.PMWritesDrained != cs.PMWritesAccepted {
		t.Errorf("drains (%d) != accepts (%d): writes wedged", cs.PMWritesDrained, cs.PMWritesAccepted)
	}
	verifyCells(t, s.Mem.Persistent, 4, "crash-free with media faults")
}

// TestCheckConvergenceRejectsNonIdempotent: the convergence checker
// must flag a recovery procedure that is not restartable.
func TestCheckConvergenceRejectsNonIdempotent(t *testing.T) {
	img := mem.NewImage()
	img.Write64(mem.PMBase, 1)
	// A "recovery" that increments a counter is not idempotent: an
	// interrupted run plus a re-run increments twice.
	bad := func(im *mem.Image) error {
		im.Write64(mem.PMBase+8, im.Read64(mem.PMBase+8)+1)
		im.Write64(mem.PMBase+16, 7) // second mutation so a cut can land between
		return nil
	}
	if _, err := CheckConvergence(img, bad, 0); err == nil {
		t.Fatal("non-idempotent recovery passed convergence")
	}
	// And a genuinely idempotent one passes.
	good := func(im *mem.Image) error {
		im.Write64(mem.PMBase+8, 42)
		im.Write64(mem.PMBase+16, 7)
		return nil
	}
	cv, err := CheckConvergence(img, good, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cv.CutsObserved == 0 {
		t.Error("sweep observed no cuts")
	}
}

// TestCheckpointImageSharedCheckpoint: crash images drawn from one
// checkpoint equal the system's own at the capture cycle, and any
// number of goroutines may draw them at once — each with its own
// injector, each writing its own image — without touching the shared
// checkpoint. Run under -race in CI.
func TestCheckpointImageSharedCheckpoint(t *testing.T) {
	plan := Plan{Seed: 7, TornPersists: true, DropProb: 0.5, TearAccepted: true}
	cfg := config.Default()
	cfg.Cores = 1
	cfg.PMControllers = 2
	s := machine.MustNew(cfg, hwdesign.StrandWeaver)
	for i, a := range cells {
		seed(s, a, uint64(i+1))
	}
	logs := undolog.Init(s, 1, 64)
	var cp *machine.Checkpoint
	s.RunAt(2_000, func() { cp = s.Snapshot() }) // mid-run: in-flight writes exist
	s.RunAt(2_000, s.Abandon)
	_, _ = s.Run([]machine.Worker{loggedWorker(logs.PerThread[0], 4)}, 100_000_000)
	if cp == nil {
		t.Fatal("run ended before the capture cycle")
	}
	live := New(plan)
	want, wantStats := live.CrashImage(s).Fingerprint(), live.Stats()
	if wantStats.LandedLines+wantStats.TornLines+wantStats.DroppedLines == 0 {
		t.Fatal("no unaccepted writes at the capture cycle: the power cut tests nothing")
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				fi := New(plan)
				img := fi.CheckpointImage(cp)
				if img.Fingerprint() != want || fi.Stats() != wantStats {
					errs <- fmt.Sprintf("goroutine %d: checkpoint image differs from the system's", g)
					return
				}
				img.SetByte(cells[g%len(cells)], byte(r)) // recovery writes its own image
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if New(plan).CheckpointImage(cp).Fingerprint() != want {
		t.Error("drawing crash images mutated the shared checkpoint")
	}
}

// TestArmTopologyMatchesArm: arming the system and arming its PM
// topology install the same media-fault streams, at 1, 2 and 4
// controllers: identical runs under a media-fault plan end at the same
// cycle with the same per-controller statistics and injector counters,
// and the injectors then draw the same crash image.
func TestArmTopologyMatchesArm(t *testing.T) {
	plan := Plan{Seed: 5, TornPersists: true, DropProb: 0.5,
		MediaFaultProb: 0.3, MediaDelayProb: 0.2, MediaDelayCycles: 500}
	type run struct {
		End   sim.Cycle
		Ctrls []pmem.Stats
		Fault Stats
		Crash uint64
	}
	for _, controllers := range []int{1, 2, 4} {
		runs := make([]run, 2)
		for i, arm := range []func(*Injector, *machine.System){
			(*Injector).Arm,
			func(fi *Injector, s *machine.System) { fi.ArmTopology(s.PM) },
		} {
			cfg := config.Default()
			cfg.Cores, cfg.PMControllers = 1, controllers
			s := machine.MustNew(cfg, hwdesign.StrandWeaver)
			for i, a := range cells {
				seed(s, a, uint64(i+1))
			}
			logs := undolog.Init(s, 1, 64)
			fi := New(plan)
			arm(fi, s)
			end, err := s.Run([]machine.Worker{loggedWorker(logs.PerThread[0], 4)}, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = run{End: end, Ctrls: s.PM.PerController(), Fault: fi.Stats(),
				Crash: fi.CrashImage(s).Fingerprint()}
		}
		if runs[0].Fault.MediaFaults == 0 {
			t.Errorf("%d controllers: the plan injected no media faults", controllers)
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%d controllers: Arm and ArmTopology runs differ\nArm:         %+v\nArmTopology: %+v",
				controllers, runs[0], runs[1])
		}
	}
}
