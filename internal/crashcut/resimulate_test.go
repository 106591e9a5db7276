package crashcut

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/faultinject"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// mediaPlans are the media plans the resimulation tests run under, the
// media-free plan first: spikes that stay on the timing wheel, spikes
// past it (1000 + 1100 cycles, on the far heap), retry-heavy faults,
// and both at once.
var mediaPlans = []struct {
	name string
	plan faultinject.Plan
}{
	{"none", faultinject.Plan{TornPersists: true, DropProb: 0.4}},
	{"wheel", faultinject.Plan{TornPersists: true, DropProb: 0.4, MediaFaultProb: 0.05, MediaDelayProb: 0.1, MediaDelayCycles: 300}},
	{"far", faultinject.Plan{TornPersists: true, DropProb: 0.4, MediaDelayProb: 0.3, MediaDelayCycles: 1100}},
	{"retry", faultinject.Plan{TornPersists: true, DropProb: 0.4, MediaFaultProb: 0.6}},
	{"mixed", faultinject.Plan{TornPersists: true, DropProb: 0.4, MediaFaultProb: 0.3, MediaDelayProb: 0.3, MediaDelayCycles: 2100}},
}

// eventCounts is the part of the engine counters that is a function of
// the event order alone (the storage counters describe how an engine
// held its events).
type eventCounts struct{ Scheduled, Fired, Switches uint64 }

func countsOf(st sim.Stats) eventCounts {
	return eventCounts{st.EventsScheduled, st.EventsFired, st.CoroutineSwitches}
}

// runMatchesCold holds a served request's crash-free results to a cold
// crash-free run of the target under the plan, and returns the cold
// run's controller statistics.
func runMatchesCold(t *testing.T, tg Target, plan faultinject.Plan, p *Prefix, what string) pmem.Stats {
	t.Helper()
	sys, ws, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	faultinject.New(plan).Arm(sys)
	end, err := sys.Run(ws, tg.Limit)
	if err != nil {
		t.Fatal(err)
	}
	if end != p.End {
		t.Errorf("%s: served end %d, cold %d", what, p.End, end)
	}
	ctrl := sys.PM.Stats()
	if !reflect.DeepEqual(ctrl, p.Ctrl) {
		t.Errorf("%s: served controller statistics differ from cold\ncold: %+v\nserved: %+v", what, ctrl, p.Ctrl)
	}
	if cold, got := countsOf(sys.Eng.Stats()), countsOf(p.Eng); cold != got {
		t.Errorf("%s: served event counters %+v, cold %+v", what, got, cold)
	}
	return ctrl
}

// constructorTargets returns a target of every constructor at the given
// controller count.
func constructorTargets(t *testing.T, controllers int) map[string]Target {
	t.Helper()
	wl, err := Workload("hashmap", 2, 8, 3, controllers)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Target{
		"DirectUndolog": DirectUndolog(2, 6, false, controllers),
		"DirectRedolog": DirectRedolog(5, controllers),
		"RedoRecord":    RedoRecord(controllers),
		"Workload":      wl,
	}
}

func endCuts(end sim.Cycle) []sim.Cycle {
	return []sim.Cycle{end / 3, end * 2 / 3, end - 1, end + 1}
}

// TestResimulatedMatchesCold: every target constructor at one and two
// controllers, under every media plan, is served from its media-free
// run with one machine simulation unless the plan's run fills a write
// queue, and the served run and cuts equal cold runs under the plan.
func TestResimulatedMatchesCold(t *testing.T) {
	walked := 0
	for _, controllers := range []int{1, 2} {
		for name, tg := range constructorTargets(t, controllers) {
			for _, mp := range mediaPlans[1:] {
				t.Run(fmt.Sprintf("%s/ctrl%d/%s", name, controllers, mp.name), func(t *testing.T) {
					c := NewCache()
					p, err := c.Get(Request{Target: tg, Plan: mp.plan, Cuts: endCuts})
					if err != nil {
						t.Fatal(err)
					}
					cold := runMatchesCold(t, tg, mp.plan, p, "served")
					matchesCold(t, tg, mp.plan, p, "served")
					want := RunStats{Simulated: 1, Resimulated: 1, Targets: 1}
					if cold.WriteQueueFullEvents != 0 {
						want = RunStats{Simulated: 2, Fallbacks: 1, Targets: 1}
					}
					if st := c.Runs(); st != want {
						t.Errorf("runs %+v, want %+v (the run's write queue filled %d times)", st, want, cold.WriteQueueFullEvents)
					}
					walked += int(c.Runs().Resimulated)
				})
			}
		}
	}
	if total := 2 * 4 * (len(mediaPlans) - 1); walked < total*3/4 {
		t.Errorf("%d of %d keys resimulated, want most", walked, total)
	}
}

// TestResimulationFallsBack: a configuration the walk cannot serve is
// simulated in full and still matches cold. With a two-entry write
// queue the media-free run itself fills the queue; with 32 entries only
// the run under media faults does, and the walk stops at the first
// arrival that waits; a retry backoff equal to the on-chip transit lets
// a retry and an arrival fall due in one cycle in either order, which
// the configuration check refuses.
func TestResimulationFallsBack(t *testing.T) {
	plan := faultinject.Plan{Seed: 3, TornPersists: true, DropProb: 0.4,
		MediaFaultProb: 0.3, MediaDelayProb: 0.3, MediaDelayCycles: 1500}
	for _, tc := range []struct {
		name      string
		tune      func(*config.Config)
		freeFills bool
	}{
		{"queue-2", func(cfg *config.Config) { cfg.PMWriteQueueEntries = 2 }, true},
		{"queue-32", func(cfg *config.Config) { cfg.PMWriteQueueEntries = 32 }, false},
		{"tied-backoff", func(cfg *config.Config) { cfg.PMMediaRetryBackoffCycles = cfg.PMWriteToControllerCycles }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tg := directUndolog(2, 8, false, 0, tc.tune)
			tg.Key = "fallback/" + tc.name
			c := NewCache()
			free, err := c.Get(Request{Target: tg, Plan: mediaPlans[0].plan, Cuts: endCuts})
			if err != nil {
				t.Fatal(err)
			}
			if fills := free.Ctrl.WriteQueueFullEvents != 0; fills != tc.freeFills {
				t.Fatalf("the media-free run filled its write queue %d times", free.Ctrl.WriteQueueFullEvents)
			}
			p, err := c.Get(Request{Target: tg, Plan: plan, Cuts: endCuts})
			if err != nil {
				t.Fatal(err)
			}
			if st := c.Runs(); st != (RunStats{Simulated: 2, Fallbacks: 1, Targets: 1}) {
				t.Errorf("runs %+v, want both runs simulated after one fallback", st)
			}
			runMatchesCold(t, tg, plan, p, tc.name)
			matchesCold(t, tg, plan, p, tc.name)
		})
	}
}

// TestConcurrentResimulations: media keys of one target requested from
// several goroutines, with the media-free key among them, share one
// media-free run and its record, and serve what a serial cache serves.
func TestConcurrentResimulations(t *testing.T) {
	tg := DirectUndolog(2, 4, false, 0)
	plans := make([]faultinject.Plan, 6)
	for i := range plans {
		plans[i] = mediaPlans[1+i%(len(mediaPlans)-1)].plan
		plans[i].Seed = uint64(i / 2)
	}
	plans[0] = mediaPlans[0].plan
	serve := func(c *Cache, plan faultinject.Plan, frac sim.Cycle) (sim.Cycle, uint64, error) {
		p, err := c.Get(Request{Target: tg, Plan: plan,
			Cuts: func(end sim.Cycle) []sim.Cycle { return []sim.Cycle{end * frac / 5} }})
		if err != nil {
			return 0, 0, err
		}
		return p.End, read(plan, p.Cuts[0]).Armed, nil
	}
	type result struct {
		end sim.Cycle
		img uint64
	}
	want := map[[2]int]result{}
	serial := NewCache()
	for i, plan := range plans {
		for frac := 1; frac <= 4; frac++ {
			end, img, err := serve(serial, plan, sim.Cycle(frac))
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{i, frac}] = result{end, img}
		}
	}
	c := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 12; k++ {
				i, frac := (k+g)%len(plans), (k*3+g)%4+1
				end, img, err := serve(c, plans[i], sim.Cycle(frac))
				if err != nil {
					t.Error(err)
					return
				}
				if got := (result{end, img}); got != want[[2]int{i, frac}] {
					t.Errorf("plan %d cut %d/5: %+v, serial cache %+v", i, frac, got, want[[2]int{i, frac}])
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Runs(); st.Simulated != 1 || st.Resimulated != uint64(len(plans)-1) {
		t.Errorf("runs %+v, want one simulation and %d resimulations", st, len(plans)-1)
	}
}

// TestLatestLogKept: a log larger than the whole budget is kept until
// another replaces it, so a media key after its media-free key needs no
// second simulation however large the log.
func TestLatestLogKept(t *testing.T) {
	tg := DirectUndolog(2, 6, false, 0)
	c := newCache(Budget, 1)
	for _, plan := range []faultinject.Plan{mediaPlans[0].plan, mediaPlans[1].plan} {
		if _, err := c.Get(Request{Target: tg, Plan: plan, Cuts: quarterCuts}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Runs(); st.Simulated != 1 || st.Resimulated != 1 {
		t.Errorf("runs %+v, want one simulation and one resimulation", st)
	}
	if c.logLRU.Len() != 1 || c.logBytes <= 1 {
		t.Errorf("cache keeps %d logs in %d bytes, want the one log past the budget", c.logLRU.Len(), c.logBytes)
	}
}

// BenchmarkResimulate measures serving a new media key of a fuzz-sized
// direct undo-log target whose media-free log is kept: one walk to the
// run's end and one walk to its cut. Every iteration's plan seed is
// new.
func BenchmarkResimulate(b *testing.B) {
	c := newCache(1, LogBudget)
	r := Request{Target: DirectUndolog(2, 4, false, 0), Plan: testPlan, Cuts: quarterCuts}
	r.Plan.Seed = 0
	if _, err := c.Get(r); err != nil {
		b.Fatal(err)
	}
	r.Cuts = func(end sim.Cycle) []sim.Cycle { return []sim.Cycle{end / 2} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Plan.Seed = uint64(i + 1)
		p, err := c.Get(r)
		if err != nil {
			b.Fatal(err)
		}
		if p.Captured != 1 {
			b.Fatalf("request %d walked to %d cuts, want 1", i, p.Captured)
		}
	}
	b.StopTimer()
	if st := c.Runs(); st.Simulated != 1 {
		b.Fatalf("runs %+v, want the media-free run simulated once", st)
	}
}
