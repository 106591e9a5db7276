package crashcut

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"strandweaver/internal/faultinject"
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
// persistent image, the controllers' unaccepted and accepted-in-flight
// writes and statistics (engine counters excluded — a capture run
// fires one more harness event than a cold run, visible only in
// scheduling statistics), and the post-crash queries.
type state struct {
	Now        sim.Cycle
	Persistent *mem.Image
	Unaccepted []pmem.LineWrite
	Accepted   []pmem.LineWrite
	Ctrl       []pmem.Stats
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
		Unaccepted: sys.PM.UnacceptedWrites(),
		Accepted:   sys.PM.AcceptedInFlight(),
		Ctrl:       sys.PM.PerController(),
		RunStats:   armed.Stats(),
		queries: ask(armed, sys.PM.Stats(), func(fi *faultinject.Injector) *mem.Image {
			return fi.CrashImage(sys)
		}),
	}
}

// armedAt returns the run's armed injector at the cut.
func armedAt(cut Cut) *faultinject.Injector {
	fi := faultinject.New(testPlan)
	fi.Restore(cut.FI)
	return fi
}

// coldAt is the reference the cache is held to: the target built
// fresh, the plan armed, the run abandoned at the cut — no checkpoint
// anywhere.
func coldAt(t *testing.T, tg Target, at sim.Cycle) state {
	t.Helper()
	sys, ws, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	fi := faultinject.New(testPlan)
	fi.Arm(sys)
	sys.RunAt(at, sys.Abandon)
	_, _ = sys.Run(ws, testLimit)
	return observe(sys, fi)
}

// forked restores a served cut into a freshly built system, with the
// armed injector restored to its position at the cut.
func forked(t *testing.T, tg Target, cut Cut) state {
	t.Helper()
	sys, _, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Restore(cut.CP)
	return observe(sys, armedAt(cut))
}

// read makes the post-crash queries straight from a served cut's
// checkpoint, with no system at all.
func read(cut Cut) queries {
	return ask(armedAt(cut), cut.CP.PMStats(), func(fi *faultinject.Injector) *mem.Image {
		return fi.CheckpointImage(cut.CP)
	})
}

func request(name string, tg Target, cuts func(sim.Cycle) []sim.Cycle) Request {
	return Request{Key: name, Build: tg.Build, Plan: testPlan, Limit: testLimit, Cuts: cuts}
}

// TestForkedMatchesCold is the differential for every target at one and
// two PM controllers: each served checkpoint, restored, must be
// indistinguishable from a cold run abandoned at the same cut — the
// crash-visible machine state, crash images under both injector rules,
// injector counters, PM statistics — and so must the same queries read
// straight from the checkpoint, whether the cut was captured by this
// request or served from cache.
func TestForkedMatchesCold(t *testing.T) {
	for _, controllers := range []int{1, 2} {
		for name, tg := range testTargets(t, controllers) {
			t.Run(fmt.Sprintf("%s/ctrl%d", name, controllers), func(t *testing.T) {
				c := NewCache()
				for pass := 0; pass < 2; pass++ {
					p, err := c.Get(request(name, tg, quarterCuts))
					if err != nil {
						t.Fatal(err)
					}
					if want := 3 * (1 - pass); p.Captured != want {
						t.Errorf("pass %d captured %d cuts, want %d", pass, p.Captured, want)
					}
					for i, cut := range p.Cuts {
						cold := coldAt(t, tg, cut.At)
						if got := forked(t, tg, cut); !reflect.DeepEqual(cold, got) {
							t.Errorf("pass %d cut %d (cycle %d): forked state differs from cold\ncold: %+v\nforked: %+v",
								pass, i, cut.At, cold, got)
						}
						if got := read(cut); !reflect.DeepEqual(cold.queries, got) {
							t.Errorf("pass %d cut %d (cycle %d): queries read from the checkpoint differ from cold\ncold: %+v\nread: %+v",
								pass, i, cut.At, cold.queries, got)
						}
					}
				}
			})
		}
	}
}

// TestEvictionKeepsOutcomes: a budget too small to hold more than the
// latest checkpoint forces recaptures; every served cut must still
// equal the one a roomy cache serves, while hits drop.
func TestEvictionKeepsOutcomes(t *testing.T) {
	tg := DirectUndolog(1, 4, false, 0)
	roomy, tiny := NewCache(), newCache(1)
	// Two passes over several runs and cuts: the second pass hits in the
	// roomy cache and recaptures in the tiny one.
	var fps [2][]uint64
	for pass := 0; pass < 2; pass++ {
		for seed := uint64(1); seed <= 3; seed++ {
			for frac := uint64(1); frac <= 3; frac++ {
				plan := testPlan
				plan.Seed = seed
				for ci, c := range []*Cache{roomy, tiny} {
					p, err := c.Get(Request{Key: fmt.Sprint(seed), Build: tg.Build, Plan: plan, Limit: testLimit,
						Cuts: func(end sim.Cycle) []sim.Cycle { return []sim.Cycle{end * sim.Cycle(frac) / 4} }})
					if err != nil {
						t.Fatal(err)
					}
					fps[ci] = append(fps[ci], forked(t, tg, p.Cuts[0]).Armed)
				}
			}
		}
	}
	if !reflect.DeepEqual(fps[0], fps[1]) {
		t.Errorf("eviction changed crash images:\nroomy %x\ntiny  %x", fps[0], fps[1])
	}
	rh, _ := roomy.Stats()
	th, tm := tiny.Stats()
	if rh == 0 || th >= rh {
		t.Errorf("hits roomy %d, tiny %d: want the tiny budget to lose hits", rh, th)
	}
	if tm != 18-th {
		t.Errorf("tiny cache: %d hits + %d misses, want 18 lookups", th, tm)
	}
	if tiny.RetainedBytes() >= roomy.RetainedBytes() {
		t.Errorf("tiny cache retains %d bytes, roomy %d", tiny.RetainedBytes(), roomy.RetainedBytes())
	}
}

// TestConcurrentRequestsSimulateOnce: requests for one key from many
// goroutines share one crash-free run and one capture run.
func TestConcurrentRequestsSimulateOnce(t *testing.T) {
	tg := DirectRedolog(4, 0)
	var mu sync.Mutex
	builds := 0
	build := func() (*machine.System, []machine.Worker, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return tg.Build()
	}
	c := NewCache()
	var wg sync.WaitGroup
	captured := make([]int, 8)
	for i := range captured {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(Request{Key: "redo", Build: build, Plan: testPlan, Limit: testLimit, Cuts: quarterCuts})
			if err != nil {
				t.Error(err)
				return
			}
			captured[i] = p.Captured
		}(i)
	}
	wg.Wait()
	if builds != 2 {
		t.Errorf("%d builds for one key, want 2 (crash-free run and capture run)", builds)
	}
	total := 0
	for _, n := range captured {
		total += n
	}
	if total != 3 {
		t.Errorf("requests captured %d cuts in total, want 3", total)
	}
}

// TestCrashFreeFailureNotMemoised: a failed crash-free run is returned
// as an error and retried by the next request.
func TestCrashFreeFailureNotMemoised(t *testing.T) {
	tg := DirectUndolog(1, 4, false, 0)
	c := NewCache()
	r := request("wedged", tg, quarterCuts)
	r.Watchdog = 50
	if _, err := c.Get(r); err == nil {
		t.Fatal("watchdog of 50 events did not fail the crash-free run")
	}
	r.Watchdog = 0
	if _, err := c.Get(r); err != nil {
		t.Fatalf("retry without the watchdog: %v", err)
	}
}
