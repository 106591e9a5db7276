// Package crashcut is the one crash-cut executor: the front half of
// every crash cut, from building a target's machine to handing back
// checkpoints positioned at the requested crash cycles.
//
// A crash cut needs the crash-free run's length (cuts are placed
// relative to it) and the machine state at the cut. Cache memoises
// both. Per run key — the target's key and the fault plan's run key,
// which together name everything that reaches the simulated run — it
// simulates the crash-free (discovery) run once, recording the PM
// controllers' log (pmem.Log) as it goes, and it serves each (key,
// cut) from a stored checkpoint, producing every missing cut of a
// request by one replay. Under ADR the controller's acceptance is the
// persistence point, so everything a cut reads — the persistent image,
// the controllers' unaccepted and in-flight writes and statistics, the
// injector's stream — is the persistence domain's own history, and a
// replay builds only that domain: an engine, a memory over a clone of
// the persistent image Build left (frozen by the discovery run before
// it started), the PM topology and a fresh injector armed on it. The
// log entries before each cut, applied to that domain, leave it exactly
// where a cold run abandoned by a pre-spawn event at the cut leaves its
// PM side, because Build leaves the topology idle and every later PM
// change is in the log. A checkpoint so answers every post-crash query
// byte-identically to that cold run. docs/SNAPSHOT.md states the
// argument; the package's tests hold the cache to a cold re-simulation
// for every target.
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

	"strandweaver/internal/config"
	"strandweaver/internal/faultinject"
	"strandweaver/internal/hwdesign"
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
// the budget is kept small next to the checkpoints'. The setup image
// kept beside each log is not counted: its pages are shared with the
// key's checkpoints, and a fuzz key's is a few pages. Like Budget it
// shapes performance only.
const LogBudget = 1 << 20

// Request is one crash-cut request: a run and the cuts wanted on it.
// Requests whose targets have equal keys and whose plans have equal run
// keys (faultinject.Plan.RunKey) describe identical runs; they share
// the crash-free run, its log and checkpoints.
type Request struct {
	// Target builds, names and bounds the run.
	Target Target
	// Plan is the fault plan armed on every run of the request.
	Plan faultinject.Plan
	// Watchdog, when nonzero, arms the engine's event-budget watchdog on
	// each run. It only fails a run, and a failed run is not memoised,
	// so it is no part of the run's key.
	Watchdog uint64
	// Cuts places the request's crash cycles, in nondecreasing order,
	// over a crash-free run of end cycles.
	Cuts func(end sim.Cycle) []sim.Cycle
}

// key names the request's run: the target's key, then the plan's run
// key.
func (r Request) key() string {
	var buf [128]byte
	return string(r.Plan.AppendRunKey(append(append(buf[:0], r.Target.Key...), '|')))
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
	rec *record
}

// record is a key's recorded run: the PM controllers' log and what a
// replay rebuilds the persistence domain from. That is the persistent
// image Build left, frozen before the run, and the machine's
// configuration and design, which fix the controller count, their
// latencies and the persistence point.
type record struct {
	log    *pmem.Log
	setup  *mem.Image
	cfg    config.Config
	design hwdesign.Design
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
	key := r.key()
	c.mu.Lock()
	ru := c.runs[key]
	if ru == nil {
		ru = &run{}
		c.runs[key] = ru
	}
	c.mu.Unlock()
	// Held across the key's simulations, as sync.Once holds its lock:
	// concurrent requests for the key wait for them instead of
	// repeating them.
	ru.mu.Lock()
	defer ru.mu.Unlock()

	var rec *record
	if !ru.done {
		var err error
		if rec, err = c.discover(r, key, ru); err != nil {
			return nil, err
		}
	}
	p := &Prefix{End: ru.end, Ctrl: ru.ctrl, Eng: ru.eng}
	ats := r.Cuts(ru.end)
	p.Cuts = make([]Cut, len(ats))
	var missing []int
	c.mu.Lock()
	for i, at := range ats {
		el := c.cps[cutKey{key, at}]
		if el == nil {
			c.misses++
			missing = append(missing, i)
			continue
		}
		c.hits++
		c.lru.MoveToFront(el)
		p.Cuts[i] = el.Value.(*lruEntry).cut
	}
	if rec == nil && len(missing) > 0 {
		if el := c.logs[key]; el != nil {
			c.logLRU.MoveToFront(el)
			rec = el.Value.(*logSlot).rec
		}
	}
	c.mu.Unlock()
	if len(missing) == 0 {
		return p, nil
	}
	if rec == nil {
		// The log was evicted: record it again.
		var err error
		if rec, err = c.discover(r, key, ru); err != nil {
			return nil, err
		}
	}
	if err := c.replay(r, key, rec, p, ats, missing); err != nil {
		return nil, err
	}
	return p, nil
}

// discover simulates the request's crash-free run on a system its
// target builds, with a fresh injector for the plan armed and the
// watchdog set. It records the run's log, freezing the persistent
// image Build left just before the run, stores the run's results in ru
// and, when the log fits the log budget, the record in the cache under
// key (evicting least recently used logs past the budget), and returns
// the record.
func (c *Cache) discover(r Request, key string, ru *run) (*record, error) {
	sys, ws, err := r.Target.Build()
	if err != nil {
		return nil, err
	}
	// A replay starts from a fresh topology and the setup image, so PM
	// traffic before the run would be missing from it.
	if !sys.PM.Idle() {
		return nil, fmt.Errorf("crashcut: %s: Build left PM controller traffic, which the run's log would miss", r.Target.Key)
	}
	faultinject.New(r.Plan).Arm(sys)
	if r.Watchdog != 0 {
		sys.SetWatchdog(r.Watchdog)
	}
	rec := &record{log: &pmem.Log{}, setup: sys.Mem.Persistent.Freeze(), cfg: sys.Cfg, design: sys.Design}
	sys.PM.Record(rec.log)
	end, err := sys.Run(ws, r.Target.Limit)
	if err != nil {
		return nil, fmt.Errorf("crash-free run: %w", err)
	}
	ru.done, ru.end, ru.ctrl, ru.eng = true, end, sys.PM.Stats(), sys.Eng.Stats()

	// A key is recorded only while it has no kept log, and its
	// discoveries are serialised, so the key has no slot here.
	log := rec.log
	if log.Bytes() > c.logBudget {
		return rec, nil
	}
	log.Compact()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logs[key] = c.logLRU.PushFront(&logSlot{key: key, rec: rec})
	c.logBytes += log.Bytes()
	for c.logBytes > c.logBudget {
		back := c.logLRU.Back()
		ev := back.Value.(*logSlot)
		c.logLRU.Remove(back)
		delete(c.logs, ev.key)
		c.logBytes -= ev.rec.log.Bytes()
	}
	return rec, nil
}

// replay produces the missing cuts from the key's record. It builds the
// persistence domain alone — an engine, a memory over a clone of the
// setup image, the PM topology and a fresh injector armed on it — then
// replays the log up to each missing cut in cycle order and snapshots
// the topology, the image and the injector there. No machine, core,
// cache or workload is built. It stores the new checkpoints, evicting
// least recently used ones past the budget (the most recent is always
// kept).
func (c *Cache) replay(r Request, key string, rec *record, p *Prefix, ats []sim.Cycle, missing []int) error {
	order := slices.Clone(missing)
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(ats[i], ats[j]) })
	if last, limit := order[len(order)-1], r.Target.Limit; limit != 0 && ats[last] > limit {
		return fmt.Errorf("cut %d (cycle %d) is past the run's limit of %d cycles", last+1, ats[last], limit)
	}
	eng := sim.NewEngine()
	// The volatile image is no part of the persistence domain.
	m := &mem.Machine{Persistent: rec.setup.Clone()}
	pm := pmem.NewTopology(eng, rec.cfg, m, rec.design.PersistAtVisibility())
	fi := faultinject.New(r.Plan)
	fi.ArmTopology(pm)
	rp := pm.Replay(rec.log)
	for k, i := range order {
		if k > 0 && ats[order[k-1]] == ats[i] {
			p.Cuts[i] = p.Cuts[order[k-1]] // a repeated cut of this request
			continue
		}
		rp.To(ats[i])
		cp := &machine.Checkpoint{At: eng.Now(), Mem: m.Snapshot(), PM: pm.Snapshot()}
		p.Cuts[i] = Cut{At: ats[i], CP: cp, FI: fi.Snapshot()}
	}
	p.Captured = len(missing)
	p.COW = m.Persistent.CowStats()

	// Store the new checkpoints, then evict. The bytes they add to the
	// retained set are the pages they do not share with checkpoints
	// already kept: the pages this replay wrote, and any setup-image
	// pages no kept checkpoint of the key holds.
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.refs.UniqueBytes()
	for _, i := range missing {
		k := cutKey{key, ats[i]}
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
