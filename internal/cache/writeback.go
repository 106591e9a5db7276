package cache

import (
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// writebackBuffer manages in-progress write-backs from an L1. Per the
// paper ("Managing cache writebacks"), StrandWeaver extends each entry
// with one field per strand buffer recording that buffer's tail index at
// write-back initiation; the write-back drains to L2 only after the
// strand buffers retire past the recorded indexes. This guarantees older
// CLWBs complete before a younger store's line can leave the L1 toward
// PM, with no possibility of circular dependency (CLWBs never wait on
// write-backs).
type writebackBuffer struct {
	l1 *L1
	// inFlight holds the gated write-backs, so the CLWB datapath can
	// find dirty data that has left the L1 but not yet reached L2.
	// free recycles drained records.
	inFlight []*writeback
	free     sim.FreeList[*writeback]
}

// writeback is one gated write-back, pooled with its drain thunk.
type writeback struct {
	wb      *writebackBuffer
	line    mem.Addr
	drainFn func()
}

// contains reports whether a write-back of line is in flight.
func (wb *writebackBuffer) contains(line mem.Addr) bool {
	for _, w := range wb.inFlight {
		if w.line == line {
			return true
		}
	}
	return false
}

// push enters a dirty line into the buffer and arranges its gated drain.
// Without a persist gate the line lands in L2 at once.
func (wb *writebackBuffer) push(line mem.Addr) {
	h := wb.l1.h
	g := h.gates[wb.l1.core]
	if g == nil {
		h.l2.install(line, true, h)
		return
	}
	w, ok := wb.free.Get()
	if !ok {
		w = &writeback{wb: wb}
		w.drainFn = w.drain
	}
	w.line = line
	wb.inFlight = append(wb.inFlight, w)
	tok := g.RecordTails()
	h.stats.WritebackGateWaits++
	g.CallWhenDrained(tok, w.drainFn)
}

// drain lands the write-back's dirty payload in the (volatile) L2; it
// persists only if later evicted from L2 or flushed.
func (w *writeback) drain() {
	wb := w.wb
	for i, x := range wb.inFlight {
		if x == w {
			last := len(wb.inFlight) - 1
			wb.inFlight[i] = wb.inFlight[last]
			wb.inFlight[last] = nil
			wb.inFlight = wb.inFlight[:last]
			break
		}
	}
	line := w.line
	wb.free.Put(w)
	h := wb.l1.h
	h.l2.install(line, true, h)
}

// InFlightWritebacks reports write-backs waiting on persist gates.
func (l *L1) InFlightWritebacks() int { return len(l.wb.inFlight) }
