package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// portEvent is one submission below the caches, stamped with its cycle.
type portEvent struct {
	At   sim.Cycle
	Kind string
	Line mem.Addr
	Data [mem.LineSize]byte
	Ack  bool
}

// recPort is a PM topology that logs every submission.
type recPort struct {
	*pmem.Topology
	eng *sim.Engine
	log []portEvent
}

func (p *recPort) SubmitRead(line mem.Addr, done pmem.ReadDone) {
	p.log = append(p.log, portEvent{At: p.eng.Now(), Kind: "read", Line: line})
	p.Topology.SubmitRead(line, done)
}

func (p *recPort) SubmitPMWrite(line mem.Addr, data [mem.LineSize]byte, ack pmem.WriteAck) {
	p.log = append(p.log, portEvent{At: p.eng.Now(), Kind: "pm-write", Line: line, Data: data, Ack: ack != nil})
	p.Topology.SubmitPMWrite(line, data, ack)
}

func (p *recPort) SubmitDRAMWrite(line mem.Addr) {
	p.log = append(p.log, portEvent{At: p.eng.Now(), Kind: "dram-write", Line: line})
	p.Topology.SubmitDRAMWrite(line)
}

// heldGate parks every gated callback until the driver releases the
// gate, then hands the callbacks to the engine in arrival order.
type heldGate struct {
	eng     *sim.Engine
	waiting []func()
}

func (g *heldGate) RecordTails() GateToken                 { return GateToken{Tail: uint64(len(g.waiting))} }
func (g *heldGate) CallWhenDrained(_ GateToken, cb func()) { g.waiting = append(g.waiting, cb) }

func (g *heldGate) release() {
	for _, cb := range g.waiting {
		g.eng.Schedule(0, cb)
	}
	g.waiting = g.waiting[:0]
}

// cacheOp is one request of a differential stream.
type cacheOp struct {
	at   sim.Cycle
	kind string // load, store, flush, preload, release
	core int
	line mem.Addr
}

// hierarchy is the request surface both implementations share.
type hierarchy interface {
	Preload(line mem.Addr)
	SetGate(core int, g PersistGate)
	Stats() HierStats
	load(core int, line mem.Addr, done func())
	store(core int, line mem.Addr, done func())
	flush(core int, line mem.Addr, done func())
	present(core int, line mem.Addr) (resident, dirty bool)
	writebacks(core int) int
}

func (h *Hierarchy) load(c int, line mem.Addr, done func())  { h.L1(c).Load(line, done) }
func (h *Hierarchy) store(c int, line mem.Addr, done func()) { h.L1(c).Store(line, done) }
func (h *Hierarchy) flush(c int, line mem.Addr, done func()) { h.L1(c).Flush(line, done) }
func (h *Hierarchy) present(c int, line mem.Addr) (bool, bool) {
	return h.L1(c).Present(line), h.L1(c).Dirty(line)
}
func (h *Hierarchy) writebacks(c int) int { return h.L1(c).InFlightWritebacks() }

func (h *refHierarchy) load(c int, line mem.Addr, done func())  { h.L1(c).Load(line, done) }
func (h *refHierarchy) store(c int, line mem.Addr, done func()) { h.L1(c).Store(line, done) }
func (h *refHierarchy) flush(c int, line mem.Addr, done func()) { h.L1(c).Flush(line, done) }
func (h *refHierarchy) present(c int, line mem.Addr) (bool, bool) {
	return h.L1(c).Present(line), h.L1(c).Dirty(line)
}
func (h *refHierarchy) writebacks(c int) int { return h.L1(c).InFlightWritebacks() }

// observed is everything a differential run compares.
type observed struct {
	// Completions lists each request's index and cycle in completion
	// order.
	Completions []string
	Stats       HierStats
	Port        []portEvent
	Engine      sim.Stats
	// Final is the L1 residency of every line, plus the in-flight
	// write-backs, after the stream drains.
	Final      []string
	Persistent []uint64
}

// replay drives one implementation with ops and observes it.
func replay(cfg config.Config, gated bool, lines []mem.Addr, ops []cacheOp,
	build func(*sim.Engine, *mem.Machine, memPort) hierarchy) observed {
	eng := sim.NewEngine()
	m := mem.NewMachine()
	port := &recPort{Topology: pmem.NewTopology(eng, cfg, m, false), eng: eng}
	h := build(eng, m, port)
	var gates []*heldGate
	if gated {
		for c := 0; c < cfg.Cores; c++ {
			g := &heldGate{eng: eng}
			gates = append(gates, g)
			h.SetGate(c, g)
		}
	}
	var ob observed
	for i, op := range ops {
		i, op := i, op
		done := func() {
			ob.Completions = append(ob.Completions, fmt.Sprintf("%d@%d", i, eng.Now()))
			if op.kind == "store" {
				m.Volatile.Write64(op.line, uint64(i+1))
			}
		}
		eng.ScheduleAt(op.at, func() {
			switch op.kind {
			case "load":
				h.load(op.core, op.line, done)
			case "store":
				h.store(op.core, op.line, done)
			case "flush":
				h.flush(op.core, op.line, done)
			case "preload":
				h.Preload(op.line)
			case "release":
				gates[op.core].release()
			}
		})
	}
	eng.Run(0)
	for pending := true; pending; {
		pending = false
		for _, g := range gates {
			if len(g.waiting) > 0 {
				pending = true
				g.release()
			}
		}
		eng.Run(0)
	}
	ob.Stats, ob.Port, ob.Engine = h.Stats(), port.log, eng.Stats()
	for c := 0; c < cfg.Cores; c++ {
		for _, line := range lines {
			if res, dirty := h.present(c, line); res {
				ob.Final = append(ob.Final, fmt.Sprintf("core%d %#x dirty=%v", c, line, dirty))
			}
		}
		ob.Final = append(ob.Final, fmt.Sprintf("core%d writebacks=%d", c, h.writebacks(c)))
	}
	for _, line := range lines {
		ob.Persistent = append(ob.Persistent, m.Persistent.Read64(line))
	}
	return ob
}

// randomStream draws n requests over lines: bursts of same-cycle
// requests (coalescing), gaps shorter and longer than the cache
// latencies, and gate releases when the hierarchy is gated.
func randomStream(rng *rand.Rand, cores, n int, lines []mem.Addr, gated bool) []cacheOp {
	var ops []cacheOp
	at := sim.Cycle(0)
	for len(ops) < n {
		switch r := rng.Intn(10); {
		case r < 4:
		case r < 8:
			at += sim.Cycle(rng.Intn(40))
		default:
			at += sim.Cycle(rng.Intn(1500))
		}
		op := cacheOp{at: at, core: rng.Intn(cores), line: lines[rng.Intn(len(lines))]}
		switch r := rng.Intn(100); {
		case r < 35:
			op.kind = "load"
		case r < 70:
			op.kind = "store"
		case r < 88:
			op.kind = "flush"
		case r < 94:
			op.kind = "preload"
		default:
			if !gated {
				continue
			}
			op.kind = "release"
		}
		ops = append(ops, op)
	}
	return ops
}

// TestHierarchyMatchesReference drives the pooled hierarchy and the
// reference map-and-closure hierarchy with identical seeded streams of
// loads, stores, flushes and preloads, on 2 and 4 cores, with and
// without persist gates, under CLWB and CLFLUSHOPT flushes. Every
// request must complete at the same cycle in the same order, and the
// statistics, engine counters, PM submissions (cycle, line, payload),
// final residency and persistent contents must be identical.
func TestHierarchyMatchesReference(t *testing.T) {
	// Small caches: the lines below conflict in both levels, so streams
	// evict, write back and re-fill constantly.
	base := config.Default()
	base.L1Sets, base.L1Ways = 4, 2
	base.L2Sets, base.L2Ways = 8, 2
	var lines []mem.Addr
	for i := 0; i < 10; i++ {
		lines = append(lines, mem.PMBase+mem.Addr(i*3)*mem.LineSize)
	}
	lines = append(lines, mem.DRAMBase, mem.DRAMBase+4*mem.LineSize)
	for _, cores := range []int{2, 4} {
		for _, gated := range []bool{false, true} {
			for _, inval := range []bool{false, true} {
				cfg := base
				cfg.Cores, cfg.FlushInvalidates = cores, inval
				name := fmt.Sprintf("cores=%d/gated=%v/flush-invalidates=%v", cores, gated, inval)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 12; seed++ {
						ops := randomStream(rand.New(rand.NewSource(seed)), cores, 400, lines, gated)
						got := replay(cfg, gated, lines, ops, func(e *sim.Engine, m *mem.Machine, p memPort) hierarchy {
							return newHierarchy(e, cfg, m, p)
						})
						want := replay(cfg, gated, lines, ops, func(e *sim.Engine, m *mem.Machine, p memPort) hierarchy {
							return newRefHierarchy(e, cfg, m, p)
						})
						if len(got.Completions) != len(ops)-countKinds(ops, "preload", "release") {
							t.Fatalf("seed %d: %d of %d requests completed", seed, len(got.Completions), len(ops))
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d: pooled hierarchy diverges from the reference\n%s", seed, firstDiff(got, want))
						}
					}
				})
			}
		}
	}
}

func countKinds(ops []cacheOp, kinds ...string) int {
	n := 0
	for _, op := range ops {
		for _, k := range kinds {
			if op.kind == k {
				n++
			}
		}
	}
	return n
}

// firstDiff names the first observed field that differs.
func firstDiff(got, want observed) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i).Interface(), wv.Field(i).Interface()
		if reflect.DeepEqual(g, w) {
			continue
		}
		if gs, ok := g.([]string); ok {
			ws := w.([]string)
			for j := 0; j < len(gs) && j < len(ws); j++ {
				if gs[j] != ws[j] {
					return fmt.Sprintf("%s[%d]: got %s, want %s", gv.Type().Field(i).Name, j, gs[j], ws[j])
				}
			}
		}
		return fmt.Sprintf("%s: got %+v\nwant %+v", gv.Type().Field(i).Name, g, w)
	}
	return "no difference"
}
