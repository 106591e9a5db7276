// Package workloads implements the paper's benchmark suite (Table II):
// queue, hashmap, array-swap, RB-tree, TPCC New-Order, and the N-Store
// key-value engine under read-heavy, balanced, and write-heavy YCSB
// mixes. Each workload populates its structures host-side (warm start),
// runs measured operations through the language-level persistency
// runtime, and provides a structural verifier for recovered crash
// images.
package workloads

import (
	"fmt"
	"math/rand"

	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/palloc"
	"strandweaver/internal/undolog"
)

// Params configures one workload instance.
type Params struct {
	// Threads is the number of worker threads (= cores used).
	Threads int
	// OpsPerThread is the measured operation count per thread.
	OpsPerThread int
	// Seed makes runs reproducible.
	Seed int64
}

// Instance is one configured workload bound to a system and runtime.
type Instance interface {
	// Name returns the benchmark's Table II name.
	Name() string
	// Setup populates structures host-side (unmeasured, warm).
	Setup(s *machine.System, rt *langmodel.Runtime)
	// Worker returns thread tid's measured body. Workers must call
	// rt.Finish at the end.
	Worker(tid int) machine.Worker
	// Verify checks structural invariants in a recovered crash image.
	Verify(img *mem.Image) error
}

// Factory constructs instances.
type Factory struct {
	// Name is the registry key ("queue", "nstore-wr", ...).
	Name string
	// Description is the Table II description.
	Description string
	New         func(p Params) Instance
}

// Registry lists the benchmarks in Table II order.
var Registry = []Factory{
	{"queue", "Insert/delete to queue", func(p Params) Instance { return newQueueWL(p) }},
	{"hashmap", "Read/update to hashmap", func(p Params) Instance { return newHashmapWL(p) }},
	{"arrayswap", "Swap of array elements", func(p Params) Instance { return newArraySwapWL(p) }},
	{"rbtree", "Insert/delete to RB-Tree", func(p Params) Instance { return newRBTreeWL(p) }},
	{"tpcc", "New Order trans. from TPCC", func(p Params) Instance { return newTPCCWL(p) }},
	{"nstore-rd", "90% read/10% write KV workload", func(p Params) Instance { return newNStoreWL(p, 90) }},
	{"nstore-bal", "50% read/50% write KV workload", func(p Params) Instance { return newNStoreWL(p, 50) }},
	{"nstore-wr", "10% read/90% write KV workload", func(p Params) Instance { return newNStoreWL(p, 10) }},
}

// Find returns the factory named name.
func Find(name string) (Factory, error) {
	for _, f := range Registry {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names lists registry names in order.
func Names() []string {
	var out []string
	for _, f := range Registry {
		out = append(out, f.Name)
	}
	return out
}

// Prepare sets inst up on sys under a fresh runtime of model m with
// opts and the given thread count, and returns one worker per thread.
// Each caller picks the machine's core count.
func Prepare(sys *machine.System, inst Instance, m langmodel.Model, opts langmodel.Options, threads int) []machine.Worker {
	inst.Setup(sys, langmodel.New(sys, m, threads, opts))
	ws := make([]machine.Worker, threads)
	for i := range ws {
		ws[i] = inst.Worker(i)
	}
	return ws
}

// common carries shared instance state.
type common struct {
	p     Params
	rt    *langmodel.Runtime
	arena *palloc.Arena
}

func (c *common) setupCommon(rt *langmodel.Runtime) {
	c.rt = rt
	c.arena = palloc.NewPM(undolog.HeapOffset, 1<<34)
}

// lockBase is where workload locks live in DRAM, one per line to avoid
// false sharing.
const lockBase = mem.DRAMBase + 1<<20

func lockAddr(i int) mem.Addr { return lockBase + mem.Addr(i)*mem.LineSize }

func rng(p Params, tid int) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed*1_000_003 + int64(tid)*97))
}
