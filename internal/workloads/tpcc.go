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

// tpccWL models the TPCC New-Order transaction the paper evaluates: a
// moderate-write-intensity transaction that acquires multiple locks
// (district plus stock stripes), increments the district's next order
// id, inserts an order record with 5-8 order lines, and decrements
// stock quantities. The paper notes its high lock-acquisition overhead
// per failure-atomic region yields StrandWeaver's smallest speedup.
//
// Layout:
//   - districts: one line each {nextOID}
//   - stock: one line per item {quantity}
//   - orders: per district, maxOrders order-header lines {oid+1, nlines}
//   - order lines: per order, maxLines lines {item+1, qty}
type tpccWL struct {
	common
	districts int
	items     uint64
	maxOrders uint64

	districtBase mem.Addr
	stockBase    mem.Addr
	ordersBase   mem.Addr
	linesBase    mem.Addr
}

const (
	tpccInitialStock = 1 << 40 // effectively inexhaustible
	tpccMaxLines     = 8
	tpccStockStripes = 16
)

func newTPCCWL(p Params) Instance {
	return &tpccWL{common: common{p: p}, districts: 8, items: 256}
}

func (w *tpccWL) Name() string { return "tpcc" }

func (w *tpccWL) Setup(s *machine.System, rt *langmodel.Runtime) {
	w.setupCommon(rt)
	h := pds.Host{Sys: s}
	w.maxOrders = uint64(w.p.Threads*w.p.OpsPerThread + 16)
	w.districtBase = w.arena.AllocLine(nil, uint64(w.districts)*mem.LineSize)
	w.stockBase = w.arena.AllocLine(nil, w.items*mem.LineSize)
	w.ordersBase = w.arena.AllocLine(nil, uint64(w.districts)*w.maxOrders*mem.LineSize)
	w.linesBase = w.arena.AllocLine(nil, uint64(w.districts)*w.maxOrders*tpccMaxLines*mem.LineSize)
	for d := 0; d < w.districts; d++ {
		h.Write64(w.district(d), 0)
	}
	for i := uint64(0); i < w.items; i++ {
		h.Write64(w.stock(i), tpccInitialStock)
	}
	h.Write64(undolog.RootAddr(0), uint64(w.districtBase))
	h.Write64(undolog.RootAddr(1), uint64(w.stockBase))
}

func (w *tpccWL) district(d int) mem.Addr {
	return w.districtBase + mem.Addr(d)*mem.LineSize
}

func (w *tpccWL) stock(item uint64) mem.Addr {
	return w.stockBase + mem.Addr(item)*mem.LineSize
}

func (w *tpccWL) order(d int, oid uint64) mem.Addr {
	return w.ordersBase + mem.Addr((uint64(d)*w.maxOrders+oid))*mem.LineSize
}

func (w *tpccWL) orderLine(d int, oid uint64, line int) mem.Addr {
	return w.linesBase + mem.Addr(((uint64(d)*w.maxOrders+oid)*tpccMaxLines+uint64(line)))*mem.LineSize
}

// Lock plan: lock 0..districts-1 are district locks; stock stripes
// follow.
func (w *tpccWL) districtLock(d int) mem.Addr { return lockAddr(d) }
func (w *tpccWL) stockLock(item uint64) mem.Addr {
	return lockAddr(w.districts + int(item%tpccStockStripes))
}

func (w *tpccWL) Worker(tid int) machine.Worker {
	return func(c *cpu.Core) {
		r := rng(w.p, tid)
		for i := 0; i < w.p.OpsPerThread; i++ {
			d := r.Intn(w.districts)
			nlines := 5 + r.Intn(tpccMaxLines-5+1)
			items := make([]uint64, nlines)
			qtys := make([]uint64, nlines)
			locks := []mem.Addr{w.districtLock(d)}
			seen := map[mem.Addr]bool{locks[0]: true}
			for l := 0; l < nlines; l++ {
				items[l] = r.Uint64() % w.items
				qtys[l] = uint64(r.Intn(10) + 1)
				sl := w.stockLock(items[l])
				if !seen[sl] {
					seen[sl] = true
					locks = append(locks, sl)
				}
			}
			w.rt.Region(c, locks, func(tx *langmodel.Tx) {
				oid := tx.Load(w.district(d))
				tx.Store(w.district(d), oid+1)
				// Order header: oid+1 marks a fully inserted order.
				hdr := w.order(d, oid)
				tx.Store(hdr, oid+1)
				tx.Store(hdr+8, uint64(nlines))
				for l := 0; l < nlines; l++ {
					la := w.orderLine(d, oid, l)
					tx.Store(la, items[l]+1)
					tx.Store(la+8, qtys[l])
					st := w.stock(items[l])
					tx.Store(st, tx.Load(st)-qtys[l])
				}
			})
			// Think time between transactions: New Order does substantial
			// non-PM work (customer/item reads, pricing), giving TPCC its
			// low Table II write intensity.
			c.Compute(uint64(1000 + r.Intn(400)))
		}
		w.rt.Finish(c)
	}
}

// Verify checks order-record completeness and stock conservation: for
// every district, orders [0, nextOID) are fully initialised, and each
// item's stock equals initial minus the sum of quantities across all
// order lines.
func (w *tpccWL) Verify(img *mem.Image) error {
	consumed := make(map[uint64]uint64)
	for d := 0; d < w.districts; d++ {
		n := img.Read64(w.district(d))
		if n > w.maxOrders {
			return fmt.Errorf("tpcc: district %d nextOID %d exceeds capacity", d, n)
		}
		for oid := uint64(0); oid < n; oid++ {
			hdr := w.order(d, oid)
			if img.Read64(hdr) != oid+1 {
				return fmt.Errorf("tpcc: district %d order %d torn header (got %d)", d, oid, img.Read64(hdr))
			}
			nlines := img.Read64(hdr + 8)
			if nlines < 5 || nlines > tpccMaxLines {
				return fmt.Errorf("tpcc: district %d order %d bad line count %d", d, oid, nlines)
			}
			for l := 0; l < int(nlines); l++ {
				la := w.orderLine(d, oid, l)
				item := img.Read64(la)
				qty := img.Read64(la + 8)
				if item == 0 || item > w.items || qty == 0 || qty > 10 {
					return fmt.Errorf("tpcc: district %d order %d line %d torn (item=%d qty=%d)", d, oid, l, item, qty)
				}
				consumed[item-1] += qty
			}
		}
	}
	for i := uint64(0); i < w.items; i++ {
		got := img.Read64(w.stock(i))
		want := uint64(tpccInitialStock) - consumed[i]
		if got != want {
			return fmt.Errorf("tpcc: stock[%d] = %d, want %d (conservation violated)", i, got, want)
		}
	}
	return nil
}
