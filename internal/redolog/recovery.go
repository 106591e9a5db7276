package redolog

import (
	"fmt"
	"sort"

	"strandweaver/internal/mem"
)

// Recovery for redo logging replays, rather than rolls back: a
// transaction whose commit record persisted is re-applied from its redo
// entries (idempotent — the in-place updates may already be there, and
// by strand ordering an in-place update can persist only after its
// commit record). Transactions without a persisted commit record are
// discarded; their in-place updates cannot have persisted.

// ReplayedWrite describes one re-applied mutation.
type ReplayedWrite struct {
	Thread int
	TxID   uint64
	Addr   mem.Addr
	Val    uint64
}

// Report summarises a redo recovery pass.
type Report struct {
	ThreadsScanned int
	// CommittedTxs counts transactions with a persisted commit record.
	CommittedTxs int
	// DiscardedTxs counts transactions whose entries were found without
	// a commit record.
	DiscardedTxs int
	// TornDiscarded counts entries whose valid flag was set but whose
	// payload checksum mismatched — a torn log-entry persist. Scrubbing
	// them is sound; see entryChecksum.
	TornDiscarded int
	// Replayed lists re-applied writes in replay order.
	Replayed []ReplayedWrite
}

type scanned struct {
	thread int
	addr   mem.Addr
	typ    uint64
	target mem.Addr
	val    uint64
	txid   uint64
	seq    uint64
}

// Recover scans the redo logs of threads [0, threads) in img, replays
// committed transactions in global creation order, and resets the logs.
// It mutates img in place and is idempotent.
func Recover(img *mem.Image, threads int) (*Report, error) {
	rep := &Report{}
	var all []scanned
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		if img.Read64(desc+descMagic) != Magic {
			continue
		}
		rep.ThreadsScanned++
		bufBase := mem.Addr(img.Read64(desc + descBufBase))
		entries := img.Read64(desc + descEntries)
		if entries == 0 || entries > 1<<24 {
			return rep, fmt.Errorf("redolog: thread %d descriptor has implausible entry count %d", t, entries)
		}
		// NextNonzero64 reads the flags words a page at a time and never
		// writes, so the scrubs below stay recovery's only mutations.
		next := func(from uint64) (uint64, uint64, bool) {
			return img.NextNonzero64(bufBase+entFlags, mem.LineSize, from, entries)
		}
		for slot, flags, ok := next(0); ok; slot, flags, ok = next(slot + 1) {
			e := bufBase + mem.Addr(slot*mem.LineSize)
			if flags&flagValid == 0 {
				continue
			}
			s := scanned{
				thread: t,
				addr:   e,
				typ:    img.Read64(e + entType),
				target: mem.Addr(img.Read64(e + entAddr)),
				val:    img.Read64(e + entNew),
				txid:   img.Read64(e + entTxID),
				seq:    img.Read64(e + entSeq),
			}
			// Torn entries are scrubbed before commit detection, so a
			// torn commit record is never honoured.
			if img.Read64(e+entCheck) != entryChecksum(s.typ, s.target, s.val, s.txid, s.seq) {
				img.Write64(e+entFlags, 0)
				rep.TornDiscarded++
				continue
			}
			all = append(all, s)
		}
	}
	// Which (thread, txid) pairs committed?
	type txKey struct {
		thread int
		txid   uint64
	}
	committed := map[txKey]bool{}
	seenTx := map[txKey]bool{}
	for _, s := range all {
		k := txKey{s.thread, s.txid}
		seenTx[k] = true
		if s.typ == typeCommit {
			committed[k] = true
		}
	}
	for k := range seenTx {
		if committed[k] {
			rep.CommittedTxs++
		} else {
			rep.DiscardedTxs++
		}
	}
	// Replay committed stores in global creation order (conflicting
	// transactions were lock-serialised, so ticket order is write order).
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, s := range all {
		if s.typ == typeStore && committed[txKey{s.thread, s.txid}] {
			img.Write64(s.target, s.val)
			rep.Replayed = append(rep.Replayed, ReplayedWrite{
				Thread: s.thread, TxID: s.txid, Addr: s.target, Val: s.val,
			})
		}
		img.Write64(s.addr+entFlags, 0)
	}
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		if img.Read64(desc+descMagic) == Magic {
			img.Write64(desc+descHead, 0)
		}
	}
	return rep, nil
}
