package workloads

import (
	"math/rand"

	"strandweaver/internal/cpu"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/pds"
	"strandweaver/internal/undolog"
)

// nstoreWL models the N-Store persistent key-value store benchmark with
// a YCSB-style Zipfian load generator, as in the paper's evaluation
// (read-heavy 90/10, balanced 50/50, and write-heavy 10/90 mixes). The
// engine is a chained hash index whose records carry a (val, stamp)
// pair with the invariant val == key ^ stamp, so recovered images can
// be checked for torn updates. Its undo-log engine is the langmodel
// runtime, mirroring the paper's modification of N-Store's engine.
type nstoreWL struct {
	common
	readPct int
	m       *pds.Hashmap
	keys    uint64
}

const nstoreStripes = 16

func newNStoreWL(p Params, readPct int) Instance {
	return &nstoreWL{common: common{p: p}, readPct: readPct, keys: 8192}
}

func (w *nstoreWL) Name() string {
	switch w.readPct {
	case 90:
		return "nstore-rd"
	case 50:
		return "nstore-bal"
	default:
		return "nstore-wr"
	}
}

func (w *nstoreWL) Setup(s *machine.System, rt *langmodel.Runtime) {
	w.setupCommon(rt)
	h := pds.Host{Sys: s}
	w.m = pds.NewHashmap(h, w.arena, 2048)
	for k := uint64(1); k <= w.keys; k++ {
		w.m.SetupInsert(h, k, k^1, 1)
	}
	h.Write64(undolog.RootAddr(0), uint64(w.m.Buckets()))
}

func (w *nstoreWL) stripeLock(key uint64) mem.Addr {
	return lockAddr(int(w.m.BucketIndex(key) % nstoreStripes))
}

// zipfKey draws a YCSB-style skewed key in [1, keys].
func (w *nstoreWL) zipf(r *rand.Rand) *rand.Zipf {
	return rand.NewZipf(r, 1.1, 1, w.keys-1)
}

func (w *nstoreWL) Worker(tid int) machine.Worker {
	return func(c *cpu.Core) {
		r := rng(w.p, tid)
		z := w.zipf(r)
		for i := 0; i < w.p.OpsPerThread; i++ {
			key := z.Uint64() + 1
			// YCSB client work: request parsing, key generation,
			// serialisation.
			c.Compute(uint64(500 + r.Intn(200)))
			if int(r.Uint64()%100) < w.readPct {
				w.rt.Region(c, []mem.Addr{w.stripeLock(key)}, func(tx *langmodel.Tx) {
					w.m.Lookup(tx, key)
				})
			} else {
				stamp := r.Uint64()
				w.rt.Region(c, []mem.Addr{w.stripeLock(key)}, func(tx *langmodel.Tx) {
					w.m.Update(tx, key, key^stamp, stamp)
					// Record post-processing inside the region overlaps
					// the update's persist acknowledgements.
					c.Compute(uint64(300 + r.Intn(100)))
				})
			}
		}
		w.rt.Finish(c)
	}
}

func (w *nstoreWL) Verify(img *mem.Image) error {
	return pds.VerifyHashmap(img, w.m.Buckets(), w.m.NumBuckets())
}
