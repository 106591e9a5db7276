package cache

import "strandweaver/internal/mem"

// mshr is one outstanding L1 fill (a miss status holding register).
// Records are pooled per L1 and keep their thunks and waiter storage
// across reuse, so a miss allocates nothing once the pool covers the
// L1's peak outstanding fills.
type mshr struct {
	l1   *L1
	line mem.Addr
	// store marks an exclusive (read-for-ownership) fill; a load fill
	// brings the line in shared.
	store bool
	de    *dirEntry
	// remote is the owner a read-exclusive request takes the line from.
	remote *L1
	// done is the requester's completion; waiters are the same-line
	// requests that piggybacked on this fill, in arrival order.
	done    func()
	waiters []func()

	completeFn, fillFn, readFn, finishFn, transferFn func()
}

// findFill returns the outstanding fill of line of the given kind, or
// nil.
func (l *L1) findFill(line mem.Addr, store bool) *mshr {
	for _, r := range l.fills {
		if r.line == line && r.store == store {
			return r
		}
	}
	return nil
}

// startFill registers a new outstanding fill of line with done as its
// requester.
func (l *L1) startFill(line mem.Addr, store bool, de *dirEntry, done func()) *mshr {
	r, ok := l.freeFills.Get()
	if !ok {
		r = &mshr{l1: l}
		r.completeFn = r.complete
		r.fillFn = r.fill
		r.readFn = r.read
		r.finishFn = r.finish
		r.transferFn = r.transfer
	}
	r.line, r.store, r.de, r.done = line, store, de, done
	l.fills = append(l.fills, r)
	return r
}

// complete retires the fill: the record leaves the outstanding set
// before the requester and then its waiters run, so a same-line request
// made from one of those callbacks starts a fresh fill.
func (r *mshr) complete() {
	l := r.l1
	for i, x := range l.fills {
		if x == r {
			last := len(l.fills) - 1
			l.fills[i] = l.fills[last]
			l.fills[last] = nil
			l.fills = l.fills[:last]
			break
		}
	}
	r.done()
	for i, w := range r.waiters {
		r.waiters[i] = nil
		w()
	}
	r.waiters = r.waiters[:0]
	r.done, r.de, r.remote = nil, nil, nil
	l.freeFills.Put(r)
}

// fill completes a load fill: the line enters this L1 shared.
func (r *mshr) fill() {
	r.de.sharers |= 1 << uint(r.l1.core)
	r.l1.install(r.line, false)
	r.complete()
}

// read completes the memory read behind an L2 miss: the line is
// installed clean in L2 on its way up.
func (r *mshr) read() {
	h := r.l1.h
	h.l2.install(r.line, false, h)
	if r.store {
		r.finish()
	} else {
		r.fill()
	}
}

// finish completes an exclusive fill: every other copy is invalidated
// and the line enters this L1 dirty with ownership.
func (r *mshr) finish() {
	l, de := r.l1, r.de
	h := l.h
	for c := 0; c < h.cfg.Cores; c++ {
		if c != l.core && de.sharers&(1<<uint(c)) != 0 {
			h.l1s[c].drop(r.line)
		}
	}
	de.sharers = 0
	de.owner = l.core
	l.install(r.line, true)
	r.complete()
}

// transfer takes the line from the remote owner (once its persist gate,
// if any, has drained) and finishes after the L2 round trip.
func (r *mshr) transfer() {
	h := r.l1.h
	h.stats.OwnershipTransfers++
	r.remote.drop(r.line)
	h.after(h.cfg.L2HitCycles, r.finishFn)
}

// Load brings line into this L1 with at least shared permission and
// invokes done when the data is available. Per the paper (Fig. 2g),
// read requests do NOT gate on a remote core's pending persists: loads
// never establish persist order.
func (l *L1) Load(line mem.Addr, done func()) {
	h := l.h
	if e := l.lookup(line); e != nil {
		l.touch(e)
		h.stats.L1Hits++
		h.after(h.cfg.L1HitCycles, done)
		return
	}
	h.stats.L1Misses++
	// MSHR coalescing: piggyback on an outstanding fill for this line;
	// an exclusive fill also satisfies the load.
	if r := l.findFill(line, false); r != nil {
		r.waiters = append(r.waiters, done)
		return
	}
	if r := l.findFill(line, true); r != nil {
		r.waiters = append(r.waiters, done)
		return
	}
	de := h.dir.entry(line)
	r := l.startFill(line, false, de, done)
	if de.owner != noOwner && de.owner != l.core {
		// Downgrade the remote owner to shared; its dirty payload moves
		// to L2 (still volatile — persistence happens only at the PM
		// controller).
		remote := h.l1s[de.owner]
		if re := remote.lookup(line); re != nil && re.dirty {
			re.dirty = false
			h.l2.install(line, true, h)
		}
		de.sharers |= 1 << uint(de.owner)
		de.owner = noOwner
		de.sharers |= 1 << uint(l.core)
		l.install(line, false)
		h.stats.L2Hits++
		h.after(h.cfg.L2HitCycles, r.completeFn)
		return
	}
	if h.l2.present(line) {
		h.stats.L2Hits++
		h.after(h.cfg.L2HitCycles, r.fillFn)
		return
	}
	h.stats.L2Misses++
	h.pm.SubmitRead(line, r.readFn)
}

// Store obtains modified permission for line in this L1, marks it dirty,
// and invokes done when the store may update the cache. If the line is
// dirty in another core's L1 and that core's persist gate has pending
// work, the read-exclusive reply stalls until the recorded strand-buffer
// tails drain (strong persist atomicity, paper Fig. 2i-j).
func (l *L1) Store(line mem.Addr, done func()) {
	h := l.h
	de := h.dir.entry(line)
	if e := l.lookup(line); e != nil && de.owner == l.core {
		// Write hit with ownership.
		l.touch(e)
		e.dirty = true
		h.stats.L1Hits++
		h.after(h.cfg.L1HitCycles, done)
		return
	}
	h.stats.L1Misses++
	// MSHR coalescing: a store while an exclusive fill for the same
	// line is outstanding piggybacks on it (the fill installs the line
	// dirty with ownership, satisfying this store too).
	if r := l.findFill(line, true); r != nil {
		r.waiters = append(r.waiters, done)
		return
	}
	r := l.startFill(line, true, de, done)
	if de.owner != noOwner && de.owner != l.core {
		// Read-exclusive request to a remote owner.
		r.remote = h.l1s[de.owner]
		if re := r.remote.lookup(line); re != nil && re.dirty {
			if g := h.gates[de.owner]; g != nil {
				tok := g.RecordTails()
				h.stats.SnoopGateWaits++
				g.CallWhenDrained(tok, r.transferFn)
				return
			}
		}
		r.transfer()
		return
	}
	if l.lookup(line) != nil || de.sharers&^(1<<uint(l.core)) != 0 || h.l2.present(line) {
		// Upgrade from shared, or L2 fill.
		h.stats.Upgrades++
		h.after(h.cfg.L2HitCycles, r.finishFn)
		return
	}
	h.stats.L2Misses++
	h.pm.SubmitRead(line, r.readFn)
}

// Flush implements the CLWB datapath (paper Section IV, "Strand buffer
// unit operation"): look up the L1; if the line is dirty, snapshot it,
// retain a clean copy, and send the write to the PM controller; on an L1
// miss, probe the L2 (and, if a remote L1 holds it dirty, flush the
// remote copy); a clean/absent line acknowledges after the lookup. done
// fires when the flush completes (controller acceptance ack for dirty
// data).
func (l *L1) Flush(line mem.Addr, done func()) {
	h := l.h
	h.stats.Flushes++
	if e := l.lookup(line); e != nil && e.dirty {
		h.stats.FlushL1Dirty++
		e.dirty = false
		if h.cfg.FlushInvalidates {
			de := h.dir.entry(line)
			// CLFLUSHOPT semantics: the line leaves the cache entirely.
			l.drop(line)
			if de.owner == l.core {
				de.owner = noOwner
			}
			de.sharers &^= 1 << uint(l.core)
		}
		h.writeLineAfter(h.cfg.L1HitCycles, line, done)
		return
	}
	// L1 clean or absent: the flush propagates downward.
	de := h.dir.entry(line)
	if de.owner != noOwner && de.owner != l.core {
		remote := h.l1s[de.owner]
		if re := remote.lookup(line); re != nil && re.dirty {
			// Another core holds the latest data dirty; the flush is
			// serviced from there (coherent CLWB). The remote copy is
			// cleaned but retained.
			h.stats.FlushRemote++
			re.dirty = false
			h.writeLineAfter(h.cfg.L1HitCycles+h.cfg.L2HitCycles, line, done)
			return
		}
	}
	if h.l2.dirty(line) {
		h.stats.FlushL2Dirty++
		h.l2.clean(line)
		h.writeLineAfter(h.cfg.L1HitCycles+h.cfg.L2HitCycles, line, done)
		return
	}
	// The dirty data may be in flight in a write-back buffer (evicted
	// from an L1 but not yet installed in L2); the flush must still
	// persist it.
	for _, peer := range h.l1s {
		if peer.wb.contains(line) {
			h.stats.FlushWBBuffer++
			h.writeLineAfter(h.cfg.L1HitCycles+h.cfg.L2HitCycles, line, done)
			return
		}
	}
	h.stats.FlushClean++
	h.after(h.cfg.L1HitCycles, done)
}
