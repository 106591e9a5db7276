package workloads

import (
	"fmt"

	"strandweaver/internal/cpu"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/pds"
	"strandweaver/internal/undolog"
)

// --- queue: all threads contend on one lock (the paper notes this is
// the least concurrent benchmark). ---

type queueWL struct {
	common
	q *pds.Queue
	// slotsBase is kept for verification.
	slotsBase mem.Addr
}

func newQueueWL(p Params) Instance { return &queueWL{common: common{p: p}} }

func (w *queueWL) Name() string { return "queue" }

func (w *queueWL) Setup(s *machine.System, rt *langmodel.Runtime) {
	w.setupCommon(rt)
	h := pds.Host{Sys: s}
	w.q = pds.NewQueue(h, w.arena, 8192)
	w.slotsBase = w.q.Slots()
	// Publish roots for recovery tooling.
	h.Write64(undolog.RootAddr(0), uint64(w.q.Header()))
	// Half-fill so pops succeed from the start.
	r := rng(w.p, 9999)
	for i := 0; i < 4096; i++ {
		w.q.SetupPush(h, r.Uint64()%1000+1)
	}
}

func (w *queueWL) Worker(tid int) machine.Worker {
	return func(c *cpu.Core) {
		r := rng(w.p, tid)
		for i := 0; i < w.p.OpsPerThread; i++ {
			push := r.Intn(2) == 0
			// Per-op application work (payload preparation) outside the
			// critical section; the queue's write intensity is low
			// because one lock serialises all threads (Table II).
			c.Compute(uint64(500 + r.Intn(200)))
			w.rt.Region(c, []mem.Addr{lockAddr(0)}, func(tx *langmodel.Tx) {
				// Payload handling inside the critical section; with a
				// single lock this serialises all eight threads and gives
				// the queue its low Table II write intensity.
				c.Compute(uint64(500 + r.Intn(200)))
				if push {
					w.q.Push(tx, r.Uint64()%1000+1)
				} else {
					w.q.Pop(tx)
				}
			})
		}
		w.rt.Finish(c)
	}
}

func (w *queueWL) Verify(img *mem.Image) error {
	return pds.VerifyQueue(img, w.q.Header(), w.slotsBase)
}

// --- hashmap: striped locks, 50/50 read/update. ---

const hashStripes = 16

type hashmapWL struct {
	common
	m    *pds.Hashmap
	keys uint64
}

func newHashmapWL(p Params) Instance { return &hashmapWL{common: common{p: p}, keys: 4096} }

func (w *hashmapWL) Name() string { return "hashmap" }

func (w *hashmapWL) Setup(s *machine.System, rt *langmodel.Runtime) {
	w.setupCommon(rt)
	h := pds.Host{Sys: s}
	w.m = pds.NewHashmap(h, w.arena, 1024)
	for k := uint64(1); k <= w.keys; k++ {
		w.m.SetupInsert(h, k, k^1, 1)
	}
	h.Write64(undolog.RootAddr(0), uint64(w.m.Buckets()))
}

func (w *hashmapWL) stripeLock(key uint64) mem.Addr {
	return lockAddr(int(w.m.BucketIndex(key) % hashStripes))
}

func (w *hashmapWL) Worker(tid int) machine.Worker {
	return func(c *cpu.Core) {
		r := rng(w.p, tid)
		for i := 0; i < w.p.OpsPerThread; i++ {
			key := r.Uint64()%w.keys + 1
			// Key hashing and request handling outside the region.
			c.Compute(uint64(800 + r.Intn(300)))
			if r.Intn(2) == 0 {
				w.rt.Region(c, []mem.Addr{w.stripeLock(key)}, func(tx *langmodel.Tx) {
					w.m.Lookup(tx, key)
				})
			} else {
				stamp := r.Uint64()
				w.rt.Region(c, []mem.Addr{w.stripeLock(key)}, func(tx *langmodel.Tx) {
					w.m.Update(tx, key, key^stamp, stamp)
					// Post-update work inside the region (volatile index
					// and statistics maintenance) overlaps the update's
					// persist acknowledgements.
					c.Compute(uint64(400 + r.Intn(100)))
				})
			}
		}
		w.rt.Finish(c)
	}
}

func (w *hashmapWL) Verify(img *mem.Image) error {
	return pds.VerifyHashmap(img, w.m.Buckets(), w.m.NumBuckets())
}

// --- arrayswap: two stripe locks per swap. ---

const arrayStripe = 512

type arraySwapWL struct {
	common
	a *pds.Array
	n uint64
}

func newArraySwapWL(p Params) Instance { return &arraySwapWL{common: common{p: p}, n: 8192} }

func (w *arraySwapWL) Name() string { return "arrayswap" }

func (w *arraySwapWL) Setup(s *machine.System, rt *langmodel.Runtime) {
	w.setupCommon(rt)
	h := pds.Host{Sys: s}
	w.a = pds.NewArray(h, w.arena, w.n)
	h.Write64(undolog.RootAddr(0), uint64(w.a.Base()))
}

func (w *arraySwapWL) Worker(tid int) machine.Worker {
	return func(c *cpu.Core) {
		r := rng(w.p, tid)
		for i := 0; i < w.p.OpsPerThread; i++ {
			x := r.Uint64() % w.n
			y := r.Uint64() % w.n
			c.Compute(uint64(1100 + r.Intn(300)))
			locks := []mem.Addr{lockAddr(int(x / arrayStripe))}
			if y/arrayStripe != x/arrayStripe {
				locks = append(locks, lockAddr(int(y/arrayStripe)))
			}
			w.rt.Region(c, locks, func(tx *langmodel.Tx) {
				w.a.Swap(tx, x, y)
				// Bookkeeping inside the region overlaps persist acks.
				c.Compute(uint64(600 + r.Intn(200)))
			})
		}
		w.rt.Finish(c)
	}
}

func (w *arraySwapWL) Verify(img *mem.Image) error {
	return pds.VerifyArray(img, w.a.Base(), w.n)
}

// --- rbtree: single lock, insert/delete mix. ---

type rbtreeWL struct {
	common
	t        *pds.RBTree
	keySpace uint64
}

func newRBTreeWL(p Params) Instance { return &rbtreeWL{common: common{p: p}, keySpace: 4096} }

func (w *rbtreeWL) Name() string { return "rbtree" }

func (w *rbtreeWL) Setup(s *machine.System, rt *langmodel.Runtime) {
	w.setupCommon(rt)
	h := pds.Host{Sys: s}
	w.t = pds.NewRBTree(h, w.arena)
	r := rng(w.p, 31337)
	for i := uint64(0); i < w.keySpace/2; i++ {
		k := r.Uint64()%w.keySpace + 1
		w.t.SetupInsert(h, k, k*3)
	}
	h.Write64(undolog.RootAddr(0), uint64(w.t.Header()))
}

func (w *rbtreeWL) Worker(tid int) machine.Worker {
	return func(c *cpu.Core) {
		r := rng(w.p, tid)
		for i := 0; i < w.p.OpsPerThread; i++ {
			k := r.Uint64()%w.keySpace + 1
			c.Compute(uint64(500 + r.Intn(200)))
			if r.Intn(2) == 0 {
				w.rt.Region(c, []mem.Addr{lockAddr(0)}, func(tx *langmodel.Tx) {
					w.t.Insert(tx, k, k*3)
					c.Compute(uint64(200 + r.Intn(100)))
				})
			} else {
				w.rt.Region(c, []mem.Addr{lockAddr(0)}, func(tx *langmodel.Tx) {
					w.t.Delete(tx, k)
					c.Compute(uint64(200 + r.Intn(100)))
				})
			}
		}
		w.rt.Finish(c)
	}
}

func (w *rbtreeWL) Verify(img *mem.Image) error {
	if err := pds.VerifyRBTree(img, w.t.Header()); err != nil {
		return fmt.Errorf("rbtree workload: %w", err)
	}
	return nil
}
