package crashcut

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/faultinject"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

const testLimit = 2_000_000_000

// testPlan tears persists and injects media faults and delays, so the
// armed injector draws during the run and the crash image draws again.
var testPlan = faultinject.Plan{Seed: 11, TornPersists: true, DropProb: 0.4,
	MediaFaultProb: 0.05, MediaDelayProb: 0.1, MediaDelayCycles: 300}

// testTargets returns every target at the given controller count.
func testTargets(t *testing.T, controllers int) map[string]Target {
	t.Helper()
	wl, err := Workload("queue", 2, 10, 1, controllers)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Target{
		"direct-undolog": DirectUndolog(2, 4, false, controllers),
		"direct-redolog": DirectRedolog(4, controllers),
		"workload-queue": wl,
		"redo-record":    RedoRecord(controllers),
	}
}

// quarterCuts places three cuts at a quarter, half and three quarters
// of the crash-free run.
func quarterCuts(end sim.Cycle) []sim.Cycle {
	return []sim.Cycle{end / 4, end / 2, end * 3 / 4}
}

// state is everything a crash-cut consumer can observe at a cut: the
// persistent image, the unaccepted write stream and each controller's
// accepted-in-flight writes and statistics (engine counters excluded —
// a replayed checkpoint carries its clock alone), and the post-crash
// queries.
type state struct {
	Now        sim.Cycle
	Persistent *mem.Image
	PM         *pmem.TopologyState
	RunStats   faultinject.Stats
	queries
}

// queries are the post-crash queries the crash-cut consumers make: the
// crash images under both callers' injector rules, the injector
// counters and the merged PM statistics.
type queries struct {
	// Armed is the crash image drawn by the run's armed injector (the
	// fuzz rule), Fresh by a fresh injector (the torture rule).
	Armed, Fresh          uint64
	ArmedStats, FreshStat faultinject.Stats
	PM                    pmem.Stats
}

// ask makes the post-crash queries through image, which draws a crash
// image with the given injector.
func ask(armed *faultinject.Injector, pm pmem.Stats, image func(*faultinject.Injector) *mem.Image) queries {
	fresh := faultinject.New(faultinject.Plan{Seed: 99, TornPersists: true, DropProb: 0.5})
	q := queries{PM: pm}
	q.Fresh = image(fresh).Fingerprint()
	q.FreshStat = fresh.Stats()
	q.Armed = image(armed).Fingerprint()
	q.ArmedStats = armed.Stats()
	return q
}

func observe(sys *machine.System, armed *faultinject.Injector) state {
	return state{
		Now:        sys.Eng.Now(),
		Persistent: sys.Mem.Persistent.Freeze(),
		PM:         sys.PM.Snapshot(),
		RunStats:   armed.Stats(),
		queries: ask(armed, sys.PM.Stats(), func(fi *faultinject.Injector) *mem.Image {
			return fi.CrashImage(sys)
		}),
	}
}

// armedAt returns the run's armed injector at the cut.
func armedAt(plan faultinject.Plan, cut Cut) *faultinject.Injector {
	fi := faultinject.New(plan)
	fi.Restore(cut.FI)
	return fi
}

// coldAt is the reference the cache is held to: the target built
// fresh, the plan armed, the run abandoned at the cut — no checkpoint
// anywhere.
func coldAt(t *testing.T, tg Target, plan faultinject.Plan, at sim.Cycle) state {
	t.Helper()
	sys, ws, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	fi := faultinject.New(plan)
	fi.Arm(sys)
	sys.RunAt(at, sys.Abandon)
	_, _ = sys.Run(ws, testLimit)
	return observe(sys, fi)
}

// forked restores a served cut into a freshly built system, with the
// armed injector restored to its position at the cut.
func forked(t *testing.T, tg Target, plan faultinject.Plan, cut Cut) state {
	t.Helper()
	sys, _, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Restore(cut.CP)
	return observe(sys, armedAt(plan, cut))
}

// read makes the post-crash queries straight from a served cut's
// checkpoint, with no system at all.
func read(plan faultinject.Plan, cut Cut) queries {
	return ask(armedAt(plan, cut), cut.CP.PM.Stats(), func(fi *faultinject.Injector) *mem.Image {
		return fi.CheckpointImage(cut.CP)
	})
}

func request(tg Target, cuts func(sim.Cycle) []sim.Cycle) Request {
	return Request{Target: tg, Plan: testPlan, Cuts: cuts}
}

// matchesCold holds every cut of p to a cold run abandoned at the same
// cycle: the restored checkpoint's crash-visible state and the queries
// read straight from the checkpoint.
func matchesCold(t *testing.T, tg Target, plan faultinject.Plan, p *Prefix, what string) {
	t.Helper()
	for i, cut := range p.Cuts {
		cold := coldAt(t, tg, plan, cut.CP.At)
		if got := forked(t, tg, plan, cut); !reflect.DeepEqual(cold, got) {
			t.Errorf("%s cut %d (cycle %d): forked state differs from cold\ncold: %+v\nforked: %+v",
				what, i, cut.CP.At, cold, got)
		}
		if got := read(plan, cut); !reflect.DeepEqual(cold.queries, got) {
			t.Errorf("%s cut %d (cycle %d): queries read from the checkpoint differ from cold\ncold: %+v\nread: %+v",
				what, i, cut.CP.At, cold.queries, got)
		}
	}
}

// TestForkedMatchesCold is the differential for every target at one and
// two PM controllers: each served checkpoint, restored, must be
// indistinguishable from a cold run abandoned at the same cut — the
// crash-visible machine state, crash images under both injector rules,
// injector counters, PM statistics — and so must the same queries read
// straight from the checkpoint, whether the cut was replayed for this
// request or served from cache.
func TestForkedMatchesCold(t *testing.T) {
	for _, controllers := range []int{1, 2} {
		for name, tg := range testTargets(t, controllers) {
			t.Run(fmt.Sprintf("%s/ctrl%d", name, controllers), func(t *testing.T) {
				c := NewCache()
				for pass := 0; pass < 2; pass++ {
					p, err := c.Get(request(tg, quarterCuts))
					if err != nil {
						t.Fatal(err)
					}
					if want := 3 * (1 - pass); p.Captured != want {
						t.Errorf("pass %d replayed %d cuts, want %d", pass, p.Captured, want)
					}
					matchesCold(t, tg, testPlan, p, fmt.Sprintf("pass %d", pass))
				}
			})
		}
	}
}

// counting wraps a target's build so it counts its calls in builds and
// every worker it hands out counts its start in started: the number of
// threads the cache has simulated.
func counting(tg Target, started, builds *int) Target {
	build := tg.Build
	tg.Build = func() (*machine.System, []machine.Worker, error) {
		*builds++
		sys, ws, err := build()
		for i, w := range ws {
			ws[i] = func(c *cpu.Core) {
				*started++
				w(c)
			}
		}
		return sys, ws, err
	}
	return tg
}

// logBytes records the target's run under the plan and returns its
// log's size.
func logBytes(t *testing.T, tg Target, plan faultinject.Plan) uint64 {
	t.Helper()
	sys, ws, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	faultinject.New(plan).Arm(sys)
	log := &pmem.Log{}
	sys.PM.Record(log)
	if _, err := sys.Run(ws, testLimit); err != nil {
		t.Fatal(err)
	}
	return log.Bytes()
}

// TestEvictionKeepsOutcomes: budgets too small to hold more than the
// latest checkpoint and the latest log, or than the latest log alone,
// force new walks and new recordings; every served cut must still equal
// the one a roomy cache serves, while hits drop and more threads are
// simulated. Each run is a media-fault key of its own target, served
// from that target's media-free log.
func TestEvictionKeepsOutcomes(t *testing.T) {
	targets := []Target{DirectUndolog(1, 4, false, 0), DirectUndolog(1, 5, false, 0), DirectUndolog(1, 6, false, 0)}
	oneLog := uint64(0)
	for _, tg := range targets {
		oneLog = max(oneLog, logBytes(t, tg, faultinject.Plan{}))
	}
	caches := []struct {
		name string
		c    *Cache
	}{
		{"roomy", NewCache()},
		{"tiny", newCache(1, 1)},              // the latest checkpoint and log
		{"one-log", newCache(Budget, oneLog)}, // every checkpoint, the latest log
	}
	started := make([]int, len(caches))
	// Two passes over several runs and cuts: the second pass hits in the
	// roomy cache and walks again in the tiny one.
	fps := make([][]uint64, len(caches))
	for pass := 0; pass < 2; pass++ {
		for k, tg := range targets {
			for frac := uint64(1); frac <= 3; frac++ {
				plan := testPlan
				plan.Seed = uint64(k + 1)
				for ci, c := range caches {
					p, err := c.c.Get(Request{Target: counting(tg, &started[ci], new(int)), Plan: plan,
						Cuts: func(end sim.Cycle) []sim.Cycle { return []sim.Cycle{end * sim.Cycle(frac) / 4} }})
					if err != nil {
						t.Fatal(err)
					}
					fps[ci] = append(fps[ci], forked(t, tg, plan, p.Cuts[0]).Armed)
				}
			}
		}
	}
	for ci := range caches[1:] {
		if !reflect.DeepEqual(fps[0], fps[ci+1]) {
			t.Errorf("eviction changed crash images:\nroomy %x\n%s %x", fps[0], caches[ci+1].name, fps[ci+1])
		}
	}
	// The roomy cache simulates each target's media-free run once; the
	// tiny one keeps only the latest log, so the second pass's walks
	// need each run simulated again; the one-log cache keeps a run's log
	// while its three cuts are walked and hits every cut of the second
	// pass, so it too simulates each run once.
	if started[0] != 3 || started[2] != 3 || started[1] <= started[0] {
		t.Errorf("threads simulated: roomy %d, tiny %d, one-log %d; want 3, more than 3, 3", started[0], started[1], started[2])
	}
	rh, _ := caches[0].c.Stats()
	th, tm := caches[1].c.Stats()
	if rh == 0 || th >= rh {
		t.Errorf("hits roomy %d, tiny %d: want the tiny budget to lose hits", rh, th)
	}
	if tm != 18-th {
		t.Errorf("tiny cache: %d hits + %d misses, want 18 lookups", th, tm)
	}
	if caches[1].c.RetainedBytes() >= caches[0].c.RetainedBytes() {
		t.Errorf("tiny cache retains %d bytes, roomy %d", caches[1].c.RetainedBytes(), caches[0].c.RetainedBytes())
	}
	for _, ci := range []int{1, 2} {
		if c := caches[ci].c; c.logLRU.Len() != 1 {
			t.Errorf("%s cache keeps %d logs in %d bytes, want the latest alone", caches[ci].name, c.logLRU.Len(), c.logBytes)
		}
	}
}

// TestReplayStartsNoWorker: once a key is served, serving further cuts
// of it walks its target's media-free log, building no machine and
// starting no worker while the log is kept; once another target's log
// has replaced it, the run is built and simulated again.
func TestReplayStartsNoWorker(t *testing.T) {
	wl, err := Workload("queue", 2, 10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	started, builds := 0, 0
	tg := counting(wl, &started, &builds)
	eighths := func(end sim.Cycle) []sim.Cycle {
		return []sim.Cycle{end / 8, end * 3 / 8, end * 5 / 8, end * 7 / 8, end + 1}
	}
	for _, kept := range []bool{true, false} {
		started, builds = 0, 0
		c := newCache(Budget, 1) // the latest log alone
		if _, err := c.Get(request(tg, quarterCuts)); err != nil {
			t.Fatal(err)
		}
		if started != 2 || builds != 1 {
			t.Fatalf("first request made %d builds and started %d workers, want 1 and 2", builds, started)
		}
		if !kept {
			if _, err := c.Get(request(DirectRedolog(4, 0), quarterCuts)); err != nil {
				t.Fatal(err)
			}
		}
		p, err := c.Get(request(tg, eighths))
		if err != nil {
			t.Fatal(err)
		}
		if p.Captured != 5 {
			t.Errorf("second request walked to %d cuts, want 5", p.Captured)
		}
		if want := map[bool]int{true: 2, false: 4}[kept]; started != want {
			t.Errorf("log kept %t: %d workers started over both requests, want %d", kept, started, want)
		}
		if want := map[bool]int{true: 1, false: 2}[kept]; builds != want {
			t.Errorf("log kept %t: %d builds over both requests, want %d", kept, builds, want)
		}
		matchesCold(t, wl, testPlan, p, fmt.Sprintf("log kept %t", kept))
	}
}

// BenchmarkReplay measures serving one missed cut of a fuzz-sized
// direct undo-log key whose log is kept: one replay. The cache keeps
// only the latest checkpoint, so the two alternating cuts miss every
// time.
func BenchmarkReplay(b *testing.B) {
	c := newCache(1, LogBudget)
	r := Request{Target: DirectUndolog(2, 4, false, 0), Plan: testPlan}
	for i := 0; i < b.N+1; i++ {
		if i == 1 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		frac := sim.Cycle(1 + i%2)
		r.Cuts = func(end sim.Cycle) []sim.Cycle { return []sim.Cycle{end * frac / 3} }
		p, err := c.Get(r)
		if err != nil {
			b.Fatal(err)
		}
		if i > 0 && p.Captured != 1 {
			b.Fatalf("request %d replayed %d cuts, want 1", i, p.Captured)
		}
	}
}

// FuzzReplayMatchesCold holds served requests to cold runs over the
// targets, one or two controllers, plan seeds, the media plans of
// mediaPlans (none among them) and two cut fractions (in 1/65536ths of
// the crash-free run, past its end allowed): the crash-free run's end,
// controller statistics and event counters, and every cut.
func FuzzReplayMatchesCold(f *testing.F) {
	f.Add(uint8(0), false, uint64(11), uint8(1), uint16(16384), uint16(49152))
	f.Add(uint8(1), true, uint64(3), uint8(1), uint16(100), uint16(65535))
	f.Add(uint8(2), false, uint64(7), uint8(0), uint16(30000), uint16(30000))
	f.Add(uint8(3), true, uint64(1), uint8(1), uint16(0), uint16(40000))
	f.Add(uint8(0), false, uint64(5), uint8(2), uint16(20000), uint16(65000)) // far heap
	f.Add(uint8(2), true, uint64(9), uint8(3), uint16(8000), uint16(60000))   // retry-heavy
	f.Add(uint8(1), true, uint64(2), uint8(2), uint16(50000), uint16(65535))  // far heap, two controllers
	f.Add(uint8(3), false, uint64(4), uint8(3), uint16(1), uint16(32768))     // retry-heavy record
	names := []string{"direct-undolog", "direct-redolog", "workload-queue", "redo-record"}
	f.Fuzz(func(t *testing.T, target uint8, two bool, seed uint64, media uint8, f1, f2 uint16) {
		controllers := 1
		if two {
			controllers = 2
		}
		name := names[int(target)%len(names)]
		tg := testTargets(t, controllers)[name]
		plan := mediaPlans[int(media)%len(mediaPlans)].plan
		plan.Seed = seed
		p, err := NewCache().Get(Request{Target: tg, Plan: plan,
			Cuts: func(end sim.Cycle) []sim.Cycle {
				at := func(f uint16) sim.Cycle { return end * sim.Cycle(f) / 32768 }
				return []sim.Cycle{min(at(f1), at(f2)), max(at(f1), at(f2))}
			}})
		if err != nil {
			t.Fatal(err)
		}
		runMatchesCold(t, tg, plan, p, name)
		matchesCold(t, tg, plan, p, name)
	})
}

// TestConcurrentRequestsSimulateOnce: requests for one key from many
// goroutines share one crash-free run, its one build, and one replay.
func TestConcurrentRequestsSimulateOnce(t *testing.T) {
	tg := DirectRedolog(4, 0)
	var mu sync.Mutex
	builds := 0
	build := tg.Build
	tg.Build = func() (*machine.System, []machine.Worker, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return build()
	}
	c := NewCache()
	var wg sync.WaitGroup
	captured := make([]int, 8)
	for i := range captured {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(request(tg, quarterCuts))
			if err != nil {
				t.Error(err)
				return
			}
			captured[i] = p.Captured
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("%d builds for one key, want 1 (the crash-free run; a replay builds none)", builds)
	}
	total := 0
	for _, n := range captured {
		total += n
	}
	if total != 3 {
		t.Errorf("requests replayed %d cuts in total, want 3", total)
	}
}

// TestConcurrentKeysEvict: requests for several keys from several
// goroutines, through a cache that keeps one checkpoint and one log,
// evict each other's entries concurrently and still serve what a roomy
// cache serves.
func TestConcurrentKeysEvict(t *testing.T) {
	tg := DirectUndolog(1, 4, false, 0)
	oneLog := uint64(0)
	for seed := uint64(1); seed <= 3; seed++ {
		plan := testPlan
		plan.Seed = seed
		oneLog = max(oneLog, logBytes(t, tg, plan))
	}
	serve := func(c *Cache, seed, frac uint64) uint64 {
		plan := testPlan
		plan.Seed = seed
		p, err := c.Get(Request{Target: tg, Plan: plan,
			Cuts: func(end sim.Cycle) []sim.Cycle { return []sim.Cycle{end * sim.Cycle(frac) / 8} }})
		if err != nil {
			t.Error(err)
			return 0
		}
		return read(plan, p.Cuts[0]).Armed
	}
	want := map[[2]uint64]uint64{}
	roomy := NewCache()
	for seed := uint64(1); seed <= 3; seed++ {
		for frac := uint64(1); frac <= 7; frac++ {
			want[[2]uint64{seed, frac}] = serve(roomy, seed, frac)
		}
	}
	tight := newCache(1, oneLog)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 21; i++ {
				seed, frac := uint64((i+g)%3+1), uint64((i*5+g)%7+1)
				if got := serve(tight, seed, frac); got != want[[2]uint64{seed, frac}] {
					t.Errorf("seed %d cut %d/8: crash image %x, roomy cache %x", seed, frac, got, want[[2]uint64{seed, frac}])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCrashFreeFailureNotMemoised: a failed crash-free run is returned
// as an error and retried by the next request.
func TestCrashFreeFailureNotMemoised(t *testing.T) {
	tg := DirectUndolog(1, 4, false, 0)
	c := NewCache()
	r := request(tg, quarterCuts)
	r.Watchdog = 50
	if _, err := c.Get(r); err == nil {
		t.Fatal("watchdog of 50 events did not fail the crash-free run")
	}
	r.Watchdog = 0
	if _, err := c.Get(r); err != nil {
		t.Fatalf("retry without the watchdog: %v", err)
	}
}

// TestReplayKeepsPersistencePoint: a replay rebuilds the topology with
// the run's persistence point. On an eADR machine with a one-line cache
// and a one-entry controller write queue, a write-back waits in the
// overflow queue while a newer store to its line persists at
// visibility; acceptance must then store nothing, in the replay as in
// the cold run.
func TestReplayKeepsPersistencePoint(t *testing.T) {
	tg := Target{Key: "eadr-overflow", Limit: testLimit,
		Build: func() (*machine.System, []machine.Worker, error) {
			cfg := config.Default()
			cfg.Cores = 1
			cfg.L1Sets, cfg.L1Ways, cfg.L2Sets, cfg.L2Ways = 1, 1, 1, 1
			cfg.PMWriteQueueEntries, cfg.PMBanks = 1, 1
			sys, err := machine.New(cfg, hwdesign.EADR)
			w := func(c *cpu.Core) {
				for i := 0; i < 24; i++ {
					c.Store64(mem.PMBase+mem.Addr(i%2)*mem.LineSize, uint64(i+1))
				}
			}
			return sys, []machine.Worker{w}, err
		}}
	p, err := NewCache().Get(request(tg, func(end sim.Cycle) []sim.Cycle {
		var cuts []sim.Cycle
		for k := sim.Cycle(1); k <= 16; k++ {
			cuts = append(cuts, end*k/16)
		}
		return append(cuts, end+1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Ctrl.WriteQueueFullEvents == 0 {
		t.Fatal("no write-back waited in the overflow queue")
	}
	matchesCold(t, tg, testPlan, p, "eadr")
}

// TestBuildMustLeaveTopologyIdle: a build that sends PM traffic before
// the run fails the request, since a replay rebuilds the PM side from
// the setup image and the log alone.
func TestBuildMustLeaveTopologyIdle(t *testing.T) {
	tg := DirectRedolog(4, 0)
	build := tg.Build
	tg.Build = func() (*machine.System, []machine.Worker, error) {
		sys, ws, err := build()
		sys.PM.SubmitPMWrite(mem.PMBase, [mem.LineSize]byte{1}, nil)
		return sys, ws, err
	}
	if _, err := NewCache().Get(request(tg, quarterCuts)); err == nil {
		t.Fatal("a build that left a PM write in flight was served")
	}
}
