package backend

import (
	"strandweaver/internal/cache"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/isa"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
)

func init() {
	register(hwdesign.EADR, eadrPlan, newEADR)
}

// eadrBackend models an extended-ADR platform: battery-backed caches
// sit inside the persistence domain (paper Section II's ADR discussion,
// taken to its limit), so a store is persistent the moment it becomes
// visible and TSO visibility order is the persist order. Consequences:
//
//   - CLWB is a zero-cost no-op: there is nothing to write back, so it
//     occupies no store-queue entry and generates no PM-controller
//     traffic (dirty-line evictions keep their normal timing but carry
//     no durability action — the data is already persistent).
//   - Every ordering barrier is accepted and completes in its issue
//     cycle; the ordering each one requests already holds.
//   - The logging plan is all-OpNone, like NonAtomic — but unlike
//     NonAtomic the design is crash-consistent, because log writes
//     become visible (hence persistent) before their in-place updates.
//
// This makes eADR the crash-consistent upper bound: the same
// instruction stream as NonAtomic minus all CLWB occupancy and flush
// traffic.
//
// The backend is also the template for adding a design: implement
// Backend in one file, call register from init, and add the name to
// hwdesign.
type eadrBackend struct {
	pm *pmem.Topology

	clwbsElided    uint64
	barriersElided uint64
	wordsPersisted uint64
}

// newEADR builds the backend. Line write-backs carry no durability
// action on this design: the PM topology, built for it by
// machine.New, persists at visibility and ignores their acceptance.
func newEADR(d Deps) Backend {
	return &eadrBackend{pm: d.PM}
}

func (b *eadrBackend) Gate() cache.PersistGate { return nil }
func (b *eadrBackend) StoreGate() StoreGate    { return StoreGate{} }

func (b *eadrBackend) CLWB(h Host, line mem.Addr) {
	b.clwbsElided++
}

func (b *eadrBackend) Barrier(h Host, k isa.OpKind) error {
	if !k.IsPersistOrderOp() {
		return unavailable(hwdesign.EADR, k)
	}
	h.NextSeq()
	b.barriersElided++
	return nil
}

// OnStoreVisible is the persistence point: the visible bytes land in
// the persistent image immediately, through the persistence boundary
// so a crash-cut log records them in order with the controllers'
// acceptances (an acceptance copies the line's old contents).
func (b *eadrBackend) OnStoreVisible(addr mem.Addr, value uint64, size uint8) {
	if !mem.IsPM(addr) {
		return
	}
	b.pm.PersistVisible(addr, value, size)
	b.wordsPersisted++
}

func (b *eadrBackend) Pump() {}

func (b *eadrBackend) Drained() bool { return true }

// eadrPlan is empty: visibility order is persist order, so every
// logging requirement is discharged for free.
var eadrPlan = OrderingPlan{
	BeginPair:   isa.OpNone,
	LogToUpdate: isa.OpNone,
	CommitOrder: isa.OpNone,
	RegionEnd:   isa.OpNone,
	Durable:     isa.OpNone,
}

func (b *eadrBackend) Stats() []Stat {
	return []Stat{
		{"clwbs_elided", b.clwbsElided},
		{"barriers_elided", b.barriersElided},
		{"words_persisted", b.wordsPersisted},
	}
}
