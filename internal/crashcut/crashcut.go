// Package crashcut is the one crash-cut executor: the front half of
// every crash cut, from building a target's machine to handing back
// checkpoints positioned at the requested crash cycles.
//
// A crash cut needs the crash-free run's length (cuts are placed
// relative to it) and the machine state at the cut. Cache memoises
// both. Per run key it runs the crash-free (discovery) run once, and it
// serves each (key, cut) from a stored checkpoint, capturing every
// missing cut of a request in one capture run: snapshot events
// scheduled pre-spawn at each cut, then an abandon after the last one.
// A capture event fires at the position a cold run's Abandon would
// (pre-spawn harness events take the lowest sequence numbers of their
// cycle) and perturbs no machine state, so a checkpoint answers every
// post-crash query byte-identically to a cold run abandoned at the same
// cut.
// docs/SNAPSHOT.md states the argument; the package's tests hold the
// cache to a cold re-simulation for every target.
//
// Every crash cut in the tree is a request here: the torture sweep,
// the fuzz search, litmus cross-validation and the harness's
// RunWithCrash. What happens after the cut — which injector draws the
// crash image from the checkpoint (CutInjector, or the armed run
// injector at the cut), recovery, invariant checks — stays with each
// caller.
package crashcut

import (
	"container/list"
	"fmt"
	"sync"

	"strandweaver/internal/faultinject"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// Budget is the unique page bytes a Cache's checkpoints retain before
// least-recently-used eviction. Checkpoints hold persistent-image pages
// only, so that is what it counts. It is generous against every
// caller's working set (a torture benchmark's prefixes, a fuzz search
// over the direct targets), while still bounding a long run. It shapes
// performance only: results are identical at any budget.
const Budget = 256 << 20

// Request is one crash-cut request: a run and the cuts wanted on it.
type Request struct {
	// Key names everything that reaches the simulated run: the target
	// and its shape, the machine's PM controller count and the fault
	// plan's run-visible part. Requests with equal keys must describe
	// identical runs; they share the crash-free run and checkpoints.
	Key string
	// Build returns a freshly constructed, un-run system and its workers.
	Build func() (*machine.System, []machine.Worker, error)
	// Plan is the fault plan armed on every run of the request.
	Plan faultinject.Plan
	// Limit bounds each run in simulated cycles; Watchdog, when
	// nonzero, arms the engine's event-budget watchdog on each run.
	Limit    sim.Cycle
	Watchdog uint64
	// Cuts places the request's crash cycles, in nondecreasing order,
	// over a crash-free run of end cycles.
	Cuts func(end sim.Cycle) []sim.Cycle
}

// Cut is one crash cut: the machine checkpoint at cycle At and the
// armed injector's stream position there.
type Cut struct {
	At sim.Cycle
	CP *machine.Checkpoint
	FI faultinject.InjectorSnapshot
}

// Prefix is a served request.
type Prefix struct {
	// End, Ctrl and Eng are the crash-free run's length and statistics.
	End  sim.Cycle
	Ctrl pmem.Stats
	Eng  sim.Stats
	// Cuts holds one entry per requested cut, in request order.
	Cuts []Cut
	// Captured counts the cuts this request captured itself (the rest
	// were served from the cache). COW is the capture run's
	// copy-on-write cost, with CheckpointBytes set to the unique page
	// bytes its checkpoints retain; zero when nothing was captured.
	Captured int
	COW      mem.Stats
}

// Cache memoises crash-free runs and crash-cut checkpoints. Crash-free
// results are kept for the cache's lifetime; checkpoints are bounded by
// their unique page bytes (checkpoints are copy-on-write views that
// share pages, so entry counts overstate the footprint; mem.PageRefs
// counts each page once), least recently used evicted first. Safe for
// concurrent use: requests for one key are serialised, so a key's
// crash-free run and each of its cuts are simulated at most once while
// they stay cached.
type Cache struct {
	mu     sync.Mutex
	runs   map[string]*run
	cps    map[cutKey]*list.Element
	lru    *list.List // of *lruEntry; front = most recently used
	refs   *mem.PageRefs
	budget uint64
	hits   uint64
	misses uint64
}

// run is one key's crash-free result; mu serialises the key's
// discovery and capture runs.
type run struct {
	mu   sync.Mutex
	done bool
	end  sim.Cycle
	ctrl pmem.Stats
	eng  sim.Stats
}

type cutKey struct {
	key string
	at  sim.Cycle
}

type lruEntry struct {
	key cutKey
	cut Cut
}

// NewCache returns an empty cache retaining up to Budget bytes.
func NewCache() *Cache { return newCache(Budget) }

func newCache(budget uint64) *Cache {
	return &Cache{
		runs:   make(map[string]*run),
		cps:    make(map[cutKey]*list.Element),
		lru:    list.New(),
		refs:   mem.NewPageRefs(),
		budget: budget,
	}
}

// Get serves a request: the crash-free run's results (simulated on the
// key's first request) and a checkpoint per requested cut, capturing
// the missing ones in one run. A failed crash-free run is returned as
// the error and not memoised.
func (c *Cache) Get(r Request) (*Prefix, error) {
	c.mu.Lock()
	ru := c.runs[r.Key]
	if ru == nil {
		ru = &run{}
		c.runs[r.Key] = ru
	}
	c.mu.Unlock()
	// Held across the key's simulations, as sync.Once holds its lock:
	// concurrent requests for the key wait for them instead of
	// repeating them.
	ru.mu.Lock()
	defer ru.mu.Unlock()

	if !ru.done {
		sys, ws, _, err := r.start()
		if err != nil {
			return nil, err
		}
		end, err := sys.Run(ws, r.Limit)
		if err != nil {
			return nil, fmt.Errorf("crash-free run: %w", err)
		}
		ru.done, ru.end, ru.ctrl, ru.eng = true, end, sys.PM.Stats(), sys.Eng.Stats()
	}
	p := &Prefix{End: ru.end, Ctrl: ru.ctrl, Eng: ru.eng}
	ats := r.Cuts(ru.end)
	p.Cuts = make([]Cut, len(ats))
	var missing []int
	c.mu.Lock()
	for i, at := range ats {
		el := c.cps[cutKey{r.Key, at}]
		if el == nil {
			c.misses++
			missing = append(missing, i)
			continue
		}
		c.hits++
		c.lru.MoveToFront(el)
		p.Cuts[i] = el.Value.(*lruEntry).cut
	}
	c.mu.Unlock()
	if len(missing) > 0 {
		if err := c.capture(r, p, ats, missing); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// start builds the request's system with a fresh injector for the
// plan armed on it and the watchdog set.
func (r Request) start() (*machine.System, []machine.Worker, *faultinject.Injector, error) {
	sys, ws, err := r.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	fi := faultinject.New(r.Plan)
	fi.Arm(sys)
	if r.Watchdog != 0 {
		sys.SetWatchdog(r.Watchdog)
	}
	return sys, ws, fi, nil
}

// capture runs the request's prefix once more, snapshotting the
// machine and injector at every missing cut (pre-spawn, so each
// snapshot fires where a cold run's Abandon would), abandons after the
// last one, and stores the new checkpoints, evicting least recently
// used ones past the budget (the most recent is always kept).
func (c *Cache) capture(r Request, p *Prefix, ats []sim.Cycle, missing []int) error {
	sys, ws, fi, err := r.start()
	if err != nil {
		return err
	}
	taken := map[sim.Cycle]*Cut{}
	for _, i := range missing {
		at := ats[i]
		if taken[at] != nil {
			continue
		}
		cut := &Cut{At: at}
		taken[at] = cut
		sys.RunAt(at, func() {
			cut.CP = sys.Snapshot()
			cut.FI = fi.Snapshot()
		})
	}
	sys.RunAt(ats[missing[len(missing)-1]], sys.Abandon)
	_, _ = sys.Run(ws, r.Limit) // abandoned at the last cut: error expected

	for _, i := range missing {
		if taken[ats[i]].CP == nil {
			return fmt.Errorf("capture run ended before cut %d (cycle %d)", i+1, ats[i])
		}
		p.Cuts[i] = *taken[ats[i]]
	}
	p.Captured = len(missing)
	p.COW = sys.Mem.CowStats()

	// Store the new checkpoints, then evict. The bytes they add to the
	// retained set are their own unique pages: a capture run's pages are
	// fresh storage, shared with no other run's checkpoints.
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.refs.UniqueBytes()
	for _, i := range missing {
		k := cutKey{r.Key, ats[i]}
		if c.cps[k] != nil {
			continue // a repeated cut of this request
		}
		cut := p.Cuts[i]
		c.cps[k] = c.lru.PushFront(&lruEntry{key: k, cut: cut})
		c.refs.Retain(cut.CP.Mem.Persistent)
	}
	p.COW.CheckpointBytes = c.refs.UniqueBytes() - before
	for c.refs.UniqueBytes() > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		ev := back.Value.(*lruEntry)
		c.lru.Remove(back)
		delete(c.cps, ev.key)
		c.refs.Release(ev.cut.CP.Mem.Persistent)
	}
	return nil
}

// CutInjector returns a fresh injector for one cut's crash image under
// the per-cut seed rule: the plan's seed decorrelated by the cut cycle,
// so the cuts of one run draw independent power-cut points and tears.
// The torture sweep and litmus cross-validation both draw their crash
// images this way; the fuzz search draws from the armed run injector
// instead, at its position at the cut.
func CutInjector(p faultinject.Plan, at sim.Cycle) *faultinject.Injector {
	p.Seed += uint64(at) * 0x9e3779b97f4a7c15
	return faultinject.New(p)
}

// Stats reports per-cut checkpoint lookups served from the cache
// (hits) and captured (misses). Counts depend on scheduling under
// concurrent use; results never do.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// RetainedBytes reports the unique page bytes the cached checkpoints
// retain. While the budget never forces an eviction, the retained set
// — and so this value — is a pure function of the requests served,
// identical at any worker count; past the budget, eviction order
// follows a scheduling-dependent access order, so the value (never a
// result) may vary.
func (c *Cache) RetainedBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refs.UniqueBytes()
}
