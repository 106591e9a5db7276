package backend

import (
	"strandweaver/internal/cache"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
	"strandweaver/internal/strand"
)

func init() {
	register(hwdesign.HOPS, hopsPlan, newHOPS)
}

// hopsBackend implements the delegated-epoch persistency model: CLWBs
// and ofences append to a single per-core persist buffer (a one-buffer
// strand buffer unit — ofence has exactly persist-barrier mechanics
// inside one buffer, so the comparison is storage-fair) without
// stalling the core; dfence stalls until the buffer and the store queue
// drain.
type hopsBackend struct {
	sbu  *strand.BufferUnit
	kick func()

	// pbAppend and drainedCond are the reusable ofence/dfence stall
	// conditions (dfence's is built on first use, once the host queue is
	// known).
	pbAppend, drainedCond func() bool
	// q is the host's store queue, known from the first CLWB; free
	// recycles CLWB records.
	q    Queue
	free sim.FreeList[*hopsCLWB]

	ofences, dfences uint64
}

// hopsCLWB is one CLWB on its way through the persist buffer, pooled
// with its thunks: tryAppend is the front-end's stall condition, ready
// holds issue until the elder same-line store drains, and done, the
// entry's completion, recycles the record (the buffer consults ready
// only before issue, and completes an entry once, at retirement).
type hopsCLWB struct {
	b                 *hopsBackend
	line              mem.Addr
	seq               uint64
	appendFn, readyFn func() bool
	doneFn            func()
}

func newHOPS(d Deps) Backend {
	b := &hopsBackend{kick: d.Kick}
	b.sbu = strand.NewBufferUnit(d.Eng, d.L1, 1, d.Cfg.HOPSPersistBufferEntries)
	b.sbu.OnChange(d.Kick)
	b.pbAppend = func() bool { return b.sbu.TryAppendPB(b.kick) }
	return b
}

func (c *hopsCLWB) tryAppend() bool { return c.b.sbu.TryAppendCLWB(c.line, c.readyFn, c.doneFn) }

func (c *hopsCLWB) ready() bool { return !c.b.q.HasPendingStoreToLine(c.line, c.seq) }

func (c *hopsCLWB) done() {
	c.b.free.Put(c)
	c.b.kick()
}

func (b *hopsBackend) Gate() cache.PersistGate { return b.sbu }
func (b *hopsBackend) StoreGate() StoreGate    { return StoreGate{} }

func (b *hopsBackend) OnStoreVisible(mem.Addr, uint64, uint8) {}

// CLWB delegates to the persist buffer, holding issue until the elder
// same-line store (if any) drains so the flush captures its value.
func (b *hopsBackend) CLWB(h Host, line mem.Addr) {
	c, ok := b.free.Get()
	if !ok {
		c = &hopsCLWB{b: b}
		c.appendFn, c.readyFn, c.doneFn = c.tryAppend, c.ready, c.done
	}
	b.q = h.Queue()
	c.line, c.seq = line, h.NextSeq()
	h.StallUntil(c.appendFn, StallQueueFull)
}

func (b *hopsBackend) Barrier(h Host, k isa.OpKind) error {
	switch k {
	case isa.OpOFence:
		// Lightweight epoch barrier: ordering is delegated to the
		// persist buffer; the core stalls only if the buffer is full.
		h.NextSeq()
		h.StallUntil(b.pbAppend, StallQueueFull)
		b.ofences++
	case isa.OpDFence:
		// Durability barrier: stall until prior stores have left the
		// store queue and the persist buffer fully drains.
		h.NextSeq()
		if b.drainedCond == nil {
			q := h.Queue()
			b.drainedCond = func() bool { return q.Empty() && b.sbu.Drained() }
		}
		h.StallUntil(b.drainedCond, StallFence)
		b.dfences++
	default:
		return unavailable(hwdesign.HOPS, k)
	}
	return nil
}

func (b *hopsBackend) Pump() { b.sbu.Kick() }

func (b *hopsBackend) Drained() bool { return b.sbu.Drained() }

// hopsPlan delegates ordering to the persist buffer: ofence for cheap
// epoch edges, dfence where durability must be handed off.
var hopsPlan = OrderingPlan{
	BeginPair:   isa.OpNone,
	LogToUpdate: isa.OpOFence,
	CommitOrder: isa.OpOFence,
	RegionEnd:   isa.OpDFence,
	Durable:     isa.OpDFence,
}

func (b *hopsBackend) Stats() []Stat {
	s := b.sbu.Stats()
	return []Stat{
		{"ofences", b.ofences},
		{"dfences", b.dfences},
		{"buffer_clwbs_accepted", s.CLWBsAccepted},
		{"buffer_clwbs_issued", s.CLWBsIssued},
		{"buffer_pbs_accepted", s.PBsAccepted},
	}
}
