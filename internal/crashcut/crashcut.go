// Package crashcut is the one crash-cut executor: the front half of
// every crash cut, from building a target's machine to handing back
// checkpoints positioned at the requested crash cycles.
//
// A crash cut needs the crash-free run's length (cuts are placed
// relative to it) and the machine state at the cut. Cache memoises
// both. Per run key — the target's key and the fault plan's run key,
// which together name everything that reaches the simulated run — it
// produces the crash-free run once and serves each (key, cut) from a
// stored checkpoint, producing every missing cut of a request by one
// walk of a recorded PM controllers' log (pmem.Log). Under ADR the
// controller's acceptance is the persistence point, so everything a
// cut reads — the persistent image, the controllers' unaccepted and
// in-flight writes and statistics, the injector's stream — is the
// persistence domain's own history, and a walk builds only that
// domain: an engine, a memory over a clone of the persistent image
// Build left (frozen before the recorded run started), the PM topology
// and a fresh injector armed on it.
//
// A target's media-free run is simulated on a machine, recording its
// log (the discovery run); a walk of that log (pmem.Topology.Replay)
// leaves the domain exactly where a cold run abandoned by a pre-spawn
// event at the cut leaves its PM side, because Build leaves the
// topology idle and every later PM change is in the log. A media-fault
// key needs no machine of its own: media delays and failures reach the
// cores only through an arrival that waits for a write-queue slot, so
// while none waits the key's run is the media-free run's on the core
// side, and a walk of the media-free log under the key's plan
// (pmem.Topology.Resimulate) applies that run's submissions, reads and
// persisted words while the domain's own media writes fire live. The
// walk to the end gives the key's end, statistics and event counts,
// and walks to its cuts give its checkpoints. A key the walk cannot
// serve — an arrival waits, a configuration lets a media event and an
// arrival of one cycle fire in either order — is simulated and
// recorded like a media-free one. Either way a checkpoint answers every
// post-crash query byte-identically to the cold run. docs/SNAPSHOT.md
// states the arguments; the package's tests hold the cache to cold
// re-simulations for every target.
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
// least-recently-used eviction, the most recent log always kept; a
// later cut of a key whose log is gone records it again with one more
// discovery run. Logs are kept per target, not per key: a target's
// media-free log serves its media-fault keys too. A fuzz target's log
// is 2 to 60 KB and a search reaches about two dozen targets, so a
// search keeps every log it records. A torture subject's log is
// megabytes, past the whole budget, and is kept until the next
// subject's replaces it, which serves the subject's media plan after
// its media-free one. Logs are live heap, so the budget is kept small
// next to the checkpoints'. The setup image kept beside each log is
// not counted: its pages are shared with the checkpoints walked from
// it, and a fuzz target's is a few pages. Like Budget it shapes
// performance only.
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

// Cut is one crash cut: the machine checkpoint at the cut cycle
// (CP.At) and the armed injector's stream position there.
type Cut struct {
	CP *machine.Checkpoint
	FI faultinject.InjectorSnapshot
}

// Prefix is a served request.
type Prefix struct {
	// End, Ctrl and Eng are the crash-free run's length and statistics.
	// Of a resimulated key's engine counters, the ones the event order
	// fixes (events scheduled and fired, coroutine switches) are its
	// run's; the ones that describe how an engine held its events
	// (fast-path and freelist hits, peak depth) are those of its
	// target's media-free run.
	End  sim.Cycle
	Ctrl pmem.Stats
	Eng  sim.Stats
	// Cuts holds one entry per requested cut, in request order.
	Cuts []Cut
	// Captured counts the cuts this request walked to itself (the rest
	// were served from the cache). COW is the walk's copy-on-write
	// cost, with CheckpointBytes set to the unique page bytes its
	// checkpoints retain; zero when nothing was walked.
	Captured int
	COW      mem.Stats
}

// Cache memoises crash-free runs, their logs and crash-cut checkpoints.
// Crash-free results are kept for the cache's lifetime. Checkpoints are
// bounded by their unique page bytes (checkpoints are copy-on-write
// views that share pages, so entry counts overstate the footprint;
// mem.PageRefs counts each page once) and logs by their bytes, each
// least recently used evicted first. Safe for concurrent use: requests
// for one key are serialised, and a media-fault key finds or records
// its target's media-free log under that run's key lock, so a target's
// media-free run is simulated once while its log stays cached, and each
// cut is walked to at most once while it stays cached.
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

	runStats RunStats
	targets  map[string]struct{}
}

// RunStats counts how a Cache produced its keys' crash-free runs.
type RunStats struct {
	// Simulated counts machine simulations: discovery runs, fallbacks
	// and recordings again of evicted logs included.
	Simulated uint64
	// Resimulated counts media-fault keys served from their target's
	// media-free run by a walk of its log, with no machine simulation.
	Resimulated uint64
	// Fallbacks counts media-fault keys the walk could not serve, each
	// then simulated.
	Fallbacks uint64
	// Targets counts the distinct targets (by Key) requested.
	Targets uint64
}

// run is one key's crash-free result; mu serialises the key's
// simulations and walks. A media-fault key resimulated from its
// target's media-free run names that run's key in sibling: its cuts
// are walked from the sibling's record, which it finds (or records
// again) under the sibling's lock taken after its own.
type run struct {
	mu      sync.Mutex
	done    bool
	end     sim.Cycle
	ctrl    pmem.Stats
	eng     sim.Stats
	sibling string
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

// record is a recorded run: the PM controllers' log and what a walk
// rebuilds the persistence domain from. That is the persistent image
// Build left, frozen before the run, and the machine's configuration
// and design, which fix the controller count, their latencies and the
// persistence point. A record is immutable once kept, so the walks of
// several keys may read it at once.
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
		targets:   make(map[string]struct{}),
	}
}

// Get serves a request: the crash-free run's results (produced on the
// key's first request) and a checkpoint per requested cut, walking a
// recorded log for the missing ones. A failed crash-free run is
// returned as the error and not memoised.
func (c *Cache) Get(r Request) (*Prefix, error) {
	key := r.key()
	ru := c.run(key, r.Target.Key)
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
	c.mu.Unlock()
	if len(missing) == 0 {
		return p, nil
	}
	if rec == nil {
		var err error
		if rec, err = c.source(r, key, ru); err != nil {
			return nil, err
		}
	}
	if err := c.capture(r, key, rec, ru.sibling != "", p, ats, missing); err != nil {
		return nil, err
	}
	return p, nil
}

// run returns the key's entry, making it on first use.
func (c *Cache) run(key, target string) *run {
	c.mu.Lock()
	defer c.mu.Unlock()
	ru := c.runs[key]
	if ru == nil {
		ru = &run{}
		c.runs[key] = ru
		if _, ok := c.targets[target]; !ok {
			c.targets[target] = struct{}{}
			c.runStats.Targets++
		}
	}
	return ru
}

// discover produces the key's crash-free run and returns the record
// its cuts are walked from. A media-fault key is resimulated from its
// target's media-free run when the walk can serve it, and simulated
// otherwise.
func (c *Cache) discover(r Request, key string, ru *run) (*record, error) {
	if r.Plan.RunVisible() != (faultinject.Plan{}) {
		if rec := c.resimulate(r, ru); rec != nil {
			return rec, nil
		}
		c.count(func(st *RunStats) { st.Fallbacks++ })
	}
	ru.sibling = ""
	return c.simulate(r, key, ru)
}

// source returns the record a key's missing cuts are walked from: its
// sibling's for a resimulated key, else its own, recording either again
// when its log was evicted. A resimulated key whose sibling's run now
// fails (a tighter watchdog) is simulated itself, as it would have been
// without resimulation.
func (c *Cache) source(r Request, key string, ru *run) (*record, error) {
	if ru.sibling != "" {
		sib := c.run(ru.sibling, r.Target.Key)
		sib.mu.Lock()
		defer sib.mu.Unlock()
		if rec, err := c.recorded(mediaFree(r), ru.sibling, sib); err == nil {
			return rec, nil
		}
		ru.sibling = ""
		return c.simulate(r, key, ru)
	}
	return c.recorded(r, key, ru)
}

// recorded returns the key's kept record, or records it again with one
// more simulation.
func (c *Cache) recorded(r Request, key string, ru *run) (*record, error) {
	c.mu.Lock()
	el := c.logs[key]
	if el != nil {
		c.logLRU.MoveToFront(el)
	}
	c.mu.Unlock()
	if el != nil {
		return el.Value.(*logSlot).rec, nil
	}
	return c.simulate(r, key, ru)
}

// mediaFree returns r under the zero plan: the request of its target's
// media-free run.
func mediaFree(r Request) Request {
	r.Plan = faultinject.Plan{}
	return r
}

// simulate simulates the request's crash-free run on a system its
// target builds, with a fresh injector for the plan armed and the
// watchdog set. It records the run's log, freezing the persistent
// image Build left just before the run, stores the run's results in ru
// and the record in the cache under key (evicting least recently used
// logs past the budget, the newest always kept), and returns the
// record.
func (c *Cache) simulate(r Request, key string, ru *run) (*record, error) {
	c.count(func(st *RunStats) { st.Simulated++ })
	sys, ws, err := r.Target.Build()
	if err != nil {
		return nil, err
	}
	// A walk starts from a fresh topology and the setup image, so PM
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
	// recordings are serialised, so the key has no slot here.
	rec.log.Compact()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logs[key] = c.logLRU.PushFront(&logSlot{key: key, rec: rec})
	c.logBytes += rec.log.Bytes()
	for c.logBytes > c.logBudget && c.logLRU.Len() > 1 {
		back := c.logLRU.Back()
		ev := back.Value.(*logSlot)
		c.logLRU.Remove(back)
		delete(c.logs, ev.key)
		c.logBytes -= ev.rec.log.Bytes()
	}
	return rec, nil
}

// resimulate serves a media-fault key from its target's media-free
// run, the sibling, discovered or reused under the sibling key's lock
// (the record is immutable, so the walk needs no lock). It walks the
// sibling's log to its end in a persistence domain armed with the
// request's plan (pmem.Topology.Resimulate), which gives the key's
// controller statistics and, with the sibling's, its end and engine
// counters; docs/SNAPSHOT.md argues the walk is the key's own run's
// persistence domain. It returns the sibling's record, which the
// key's cuts are walked from, or nil when the walk cannot serve the
// key: the sibling's run failed, the configuration lets a media event
// fire after a same-cycle arrival, the walk left the sibling's log (an
// arrival found its write queue full), or the key's run would trip the
// request's watchdog or reach the target's limit.
func (c *Cache) resimulate(r Request, ru *run) *record {
	sr := mediaFree(r)
	sibKey := sr.key()
	sib := c.run(sibKey, r.Target.Key)
	sib.mu.Lock()
	rec, err := c.recorded(sr, sibKey, sib)
	sibEnd, sibEng, sibFilled := sib.end, sib.eng, sib.ctrl.WriteQueueFullEvents != 0
	sib.mu.Unlock()
	if err != nil || !rec.resimulable() || sibFilled {
		return nil
	}
	d := rec.domain(r.Plan)
	defer d.release()
	w := d.pm.Resimulate(rec.log)
	last, err := w.Finish()
	if err != nil {
		return nil
	}
	// Media writes that wait for a bank or retry reach no core, so the
	// run is the sibling's but for its media events, and it ends when
	// the later of the two last events fires.
	end := max(sibEnd, last)
	eng := sibEng
	logged, walked := w.MediaEvents()
	eng.EventsScheduled += walked - logged
	eng.EventsFired += walked - logged
	if limit := r.Target.Limit; limit != 0 && end >= limit {
		return nil // a run that reaches its limit stops there
	}
	if r.Watchdog != 0 && eng.EventsFired >= r.Watchdog {
		return nil
	}
	ru.done, ru.end, ru.ctrl, ru.eng, ru.sibling = true, end, d.pm.Stats(), eng, sibKey
	c.count(func(st *RunStats) { st.Resimulated++ })
	return rec
}

// capture produces the missing cuts from a record. It builds the
// persistence domain alone (record.domain) and walks the record's log
// to each missing cut in cycle order — a replay of the key's own run,
// or, with resim set, a resimulation of the sibling's run under the
// request's plan — and snapshots the topology, the image and the
// injector there. No machine, core, cache or workload is built. It
// stores the new checkpoints, evicting least recently used ones past
// the budget (the most recent is always kept).
func (c *Cache) capture(r Request, key string, rec *record, resim bool, p *Prefix, ats []sim.Cycle, missing []int) error {
	order := slices.Clone(missing)
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(ats[i], ats[j]) })
	if last, limit := order[len(order)-1], r.Target.Limit; limit != 0 && ats[last] > limit {
		return fmt.Errorf("cut %d (cycle %d) is past the run's limit of %d cycles", last+1, ats[last], limit)
	}
	d := rec.domain(r.Plan)
	defer d.release()
	w := d.pm.Replay(rec.log)
	if resim {
		w = d.pm.Resimulate(rec.log)
	}
	for k, i := range order {
		if k > 0 && ats[order[k-1]] == ats[i] {
			p.Cuts[i] = p.Cuts[order[k-1]] // a repeated cut of this request
			continue
		}
		if err := w.To(ats[i]); err != nil {
			return fmt.Errorf("crashcut: %s: %w", r.Target.Key, err)
		}
		cp := &machine.Checkpoint{At: ats[i], Image: d.m.Snapshot(), PM: d.pm.Snapshot()}
		p.Cuts[i] = Cut{CP: cp, FI: d.fi.Snapshot()}
	}
	p.Captured = len(missing)
	p.COW = d.m.Persistent.CowStats()

	// Store the new checkpoints, then evict. The bytes they add to the
	// retained set are the pages they do not share with checkpoints
	// already kept: the pages this walk wrote, and any setup-image pages
	// no kept checkpoint of the key holds.
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
		c.refs.Retain(cut.CP.Image)
	}
	p.COW.CheckpointBytes = c.refs.UniqueBytes() - before
	for c.refs.UniqueBytes() > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		ev := back.Value.(*lruEntry)
		c.lru.Remove(back)
		delete(c.cps, ev.key)
		c.refs.Release(ev.cut.CP.Image)
	}
	return nil
}

// domain is a persistence domain built from a record: an engine, a
// memory over a clone of the setup image (the volatile image is no part
// of the domain), the PM topology with the run's persistence point and
// a fresh injector for a plan armed on it.
type domain struct {
	eng *sim.Engine
	m   *mem.Machine
	pm  *pmem.Topology
	fi  *faultinject.Injector
}

// engines recycles the domains' engines, so a walk reuses a timing
// wheel instead of allocating one.
var engines = sync.Pool{New: func() any { return sim.NewEngine() }}

func (rec *record) domain(plan faultinject.Plan) *domain {
	d := &domain{eng: engines.Get().(*sim.Engine), m: &mem.Machine{Persistent: rec.setup.Clone()}}
	d.pm = pmem.NewTopology(d.eng, rec.cfg, d.m, rec.design.PersistAtVisibility())
	d.fi = faultinject.New(plan)
	d.fi.ArmTopology(d.pm)
	return d
}

// release returns the domain's engine to the pool; the domain is dead.
func (d *domain) release() {
	d.eng.Reset()
	engines.Put(d.eng)
}

// resimulable reports whether the record's configuration fires every
// media event before an arrival of the same cycle: both media latencies
// (a write, a retry's backoff) exceed the on-chip transit, so a media
// event due at a cycle was scheduled before any arrival due then. A
// walk of another run's log lets its media events fire from the engine
// between the logged arrivals, which is exact only then.
func (rec *record) resimulable() bool {
	transit := rec.cfg.PMWriteToControllerCycles
	return rec.cfg.PMWriteToMediaCycles > transit && rec.cfg.PMMediaRetryBackoffCycles > transit
}

// count updates the run statistics under the cache's lock.
func (c *Cache) count(f func(*RunStats)) {
	c.mu.Lock()
	f(&c.runStats)
	c.mu.Unlock()
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
// (hits) and walked to (misses). Counts depend on scheduling under
// concurrent use; results never do.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Runs reports how the cache produced its keys' crash-free runs.
// Counts depend on scheduling under concurrent use (which request
// records a key's log first); results never do.
func (c *Cache) Runs() RunStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runStats
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
