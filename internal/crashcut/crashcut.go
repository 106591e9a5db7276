// Package crashcut is the one crash-cut executor: the front half of
// every crash cut, from building a target's machine to handing back
// checkpoints positioned at the requested crash cycles.
//
// A crash cut needs the crash-free run's length (cuts are placed
// relative to it) and the machine state at the cut. Cache memoises
// both. Per run key it simulates the crash-free (discovery) run once,
// recording the PM controllers' log (pmem.Log) as it goes, and it
// serves each (key, cut) from a stored checkpoint, producing every
// missing cut of a request by one replay: the log entries before each
// cut applied to a freshly built, never-run system of the key with a
// fresh armed injector, then a snapshot. Under ADR the controller's
// acceptance is the persistence point, so everything a cut reads — the
// persistent image, the controllers' unaccepted and in-flight writes
// and statistics, the injector's stream — is the controllers' own
// history, and the replayed system stands exactly where a cold run
// abandoned by a pre-spawn event at the cut stands. A checkpoint so
// answers every post-crash query byte-identically to that cold run.
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
	"cmp"
	"container/list"
	"fmt"
	"slices"
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

// LogBudget is the bytes a Cache's recorded run logs retain before
// least-recently-used eviction; a later cut of a key whose log is gone
// records it again with one more discovery run. A fuzz search's logs
// are about 10 KB each and serve cut after cut, so about a hundred stay.
// A torture subject's log is megabytes and serves one request (torture
// asks for all of a run's cuts at once), so a log larger than the whole
// budget serves its own request and is dropped. Logs are live heap, so
// the budget is kept small next to the checkpoints'. Like Budget it
// shapes performance only.
const LogBudget = 1 << 20

// Request is one crash-cut request: a run and the cuts wanted on it.
type Request struct {
	// Key names everything that reaches the simulated run: the target
	// and its shape, the machine's PM controller count and the fault
	// plan's run-visible part. Requests with equal keys must describe
	// identical runs; they share the crash-free run, its log and
	// checkpoints.
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

// Cut is one crash cut: the machine checkpoint at cycle At (CP.At ==
// At) and the armed injector's stream position there.
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
	// Captured counts the cuts this request replayed itself (the rest
	// were served from the cache). COW is the replay's copy-on-write
	// cost, with CheckpointBytes set to the unique page bytes its
	// checkpoints retain; zero when nothing was replayed.
	Captured int
	COW      mem.Stats
}

// Cache memoises crash-free runs, their logs and crash-cut checkpoints.
// Crash-free results are kept for the cache's lifetime. Checkpoints are
// bounded by their unique page bytes (checkpoints are copy-on-write
// views that share pages, so entry counts overstate the footprint;
// mem.PageRefs counts each page once) and logs by their bytes, each
// least recently used evicted first. Safe for concurrent use: requests
// for one key are serialised, so a key is simulated once while its log
// stays cached, and each of its cuts is replayed at most once while it
// stays cached.
type Cache struct {
	mu     sync.Mutex
	runs   map[string]*run
	cps    map[cutKey]*list.Element
	lru    *list.List // of *lruEntry; front = most recently used
	refs   *mem.PageRefs
	budget uint64
	hits   uint64
	misses uint64

	logs      map[string]*list.Element
	logLRU    *list.List // of *logSlot; front = most recently used
	logBytes  uint64
	logBudget uint64
}

// run is one key's crash-free result; mu serialises the key's
// discovery runs and replays.
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

type logSlot struct {
	key string
	log *pmem.Log
}

// NewCache returns an empty cache retaining up to Budget checkpoint
// bytes and LogBudget log bytes.
func NewCache() *Cache { return newCache(Budget, LogBudget) }

func newCache(budget, logBudget uint64) *Cache {
	return &Cache{
		runs:      make(map[string]*run),
		cps:       make(map[cutKey]*list.Element),
		lru:       list.New(),
		refs:      mem.NewPageRefs(),
		budget:    budget,
		logs:      make(map[string]*list.Element),
		logLRU:    list.New(),
		logBudget: logBudget,
	}
}

// Get serves a request: the crash-free run's results (simulated on the
// key's first request) and a checkpoint per requested cut, replaying
// the key's log for the missing ones. A failed crash-free run is
// returned as the error and not memoised.
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

	var log *pmem.Log
	if !ru.done {
		var err error
		if log, err = c.discover(r, ru); err != nil {
			return nil, err
		}
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
	if log == nil && len(missing) > 0 {
		if el := c.logs[r.Key]; el != nil {
			c.logLRU.MoveToFront(el)
			log = el.Value.(*logSlot).log
		}
	}
	c.mu.Unlock()
	if len(missing) == 0 {
		return p, nil
	}
	if log == nil {
		// The log was evicted: record it again.
		var err error
		if log, err = c.discover(r, ru); err != nil {
			return nil, err
		}
	}
	if err := c.replay(r, log, p, ats, missing); err != nil {
		return nil, err
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

// discover simulates the request's crash-free run, recording its log,
// stores the run's results in ru and, when it fits the log budget, the
// log in the cache (evicting least recently used logs past the
// budget), and returns the log.
func (c *Cache) discover(r Request, ru *run) (*pmem.Log, error) {
	sys, ws, _, err := r.start()
	if err != nil {
		return nil, err
	}
	log := &pmem.Log{}
	sys.PM.Record(log)
	end, err := sys.Run(ws, r.Limit)
	if err != nil {
		return nil, fmt.Errorf("crash-free run: %w", err)
	}
	ru.done, ru.end, ru.ctrl, ru.eng = true, end, sys.PM.Stats(), sys.Eng.Stats()

	// A key is recorded only while it has no kept log, and its
	// discoveries are serialised, so the key has no slot here.
	if log.Bytes() > c.logBudget {
		return log, nil
	}
	log.Compact()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logs[r.Key] = c.logLRU.PushFront(&logSlot{key: r.Key, log: log})
	c.logBytes += log.Bytes()
	for c.logBytes > c.logBudget {
		back := c.logLRU.Back()
		ev := back.Value.(*logSlot)
		c.logLRU.Remove(back)
		delete(c.logs, ev.key)
		c.logBytes -= ev.log.Bytes()
	}
	return log, nil
}

// replay produces the missing cuts from the key's log: one freshly
// built, never-run system with a fresh armed injector, the log replayed
// up to each missing cut in cycle order and the system and injector
// snapshotted there. It stores the new checkpoints, evicting least
// recently used ones past the budget (the most recent is always kept).
func (c *Cache) replay(r Request, log *pmem.Log, p *Prefix, ats []sim.Cycle, missing []int) error {
	order := slices.Clone(missing)
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(ats[i], ats[j]) })
	if last := order[len(order)-1]; r.Limit != 0 && ats[last] > r.Limit {
		return fmt.Errorf("cut %d (cycle %d) is past the run's limit of %d cycles", last+1, ats[last], r.Limit)
	}
	sys, _, fi, err := r.start()
	if err != nil {
		return err
	}
	rp := sys.PM.Replay(log)
	for k, i := range order {
		if k > 0 && ats[order[k-1]] == ats[i] {
			p.Cuts[i] = p.Cuts[order[k-1]] // a repeated cut of this request
			continue
		}
		rp.To(ats[i])
		p.Cuts[i] = Cut{At: ats[i], CP: sys.Snapshot(), FI: fi.Snapshot()}
	}
	p.Captured = len(missing)
	p.COW = sys.Mem.CowStats()

	// Store the new checkpoints, then evict. The bytes they add to the
	// retained set are their own unique pages: a replay's pages are
	// fresh storage, shared with no other replay's checkpoints.
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
// (hits) and replayed (misses). Counts depend on scheduling under
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
