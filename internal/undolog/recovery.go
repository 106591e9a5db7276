package undolog

import (
	"fmt"
	"sort"

	"strandweaver/internal/mem"
)

// Recovery implements Figure 6(b) over a crash image: for each thread's
// log, finish any interrupted commit (invalidate entries up to the
// commit marker and advance the head), then roll back every remaining
// valid store entry, across all threads, in reverse order of creation
// (the global ticket stamped in each entry). The commit protocol's
// dependency ordering (language runtime) guarantees that the set of
// uncommitted regions is closed under happens-before, so reverse-ticket
// rollback restores a consistent cut.
//
// Recovery runs host-side: the paper's recovery is ordinary software
// executed at restart, not part of the measured persistency hardware.

// RecoveredEntry describes one rolled-back mutation.
type RecoveredEntry struct {
	Thread int
	Ticket uint64
	Addr   mem.Addr
	Old    uint64
}

// Report summarises one recovery pass.
type Report struct {
	// ThreadsScanned counts logs with a valid descriptor magic.
	ThreadsScanned int
	// CommitsFinished counts logs where an interrupted commit (marker
	// set) was completed.
	CommitsFinished int
	// EntriesInvalidated counts committed entries invalidated while
	// finishing commits.
	EntriesInvalidated int
	// TornDiscarded counts entries whose valid flag was set but whose
	// payload checksum mismatched — a torn log-entry persist. They are
	// scrubbed, which is sound: the runtime issues an in-place update
	// only after its log entry's flush is accepted (durable), so a torn
	// entry's update never reached PM.
	TornDiscarded int
	// RolledBack lists undone mutations, in the order applied (reverse
	// creation order).
	RolledBack []RecoveredEntry
}

type scannedEntry struct {
	thread int
	addr   mem.Addr
	typ    EntryType
	target mem.Addr
	old    uint64
	ticket uint64
	flags  uint64
}

// Recover scans the logs of threads [0, threads) in img, finishes
// interrupted commits, rolls back uncommitted mutations, and resets the
// logs to empty. It mutates img in place (img is the recovered PM
// state) and is idempotent.
func Recover(img *mem.Image, threads int) (*Report, error) {
	rep := &Report{}
	var live []scannedEntry
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		if img.Read64(desc+descMagic) != Magic {
			continue
		}
		rep.ThreadsScanned++
		bufBase := mem.Addr(img.Read64(desc + descBufBase))
		entries := img.Read64(desc + descEntries)
		if entries == 0 || entries > 1<<24 {
			return rep, fmt.Errorf("undolog: thread %d descriptor has implausible entry count %d", t, entries)
		}
		// Scan every slot for valid entries and the newest commit
		// marker. Entries whose payload checksum mismatches are torn
		// log persists: scrub and discard them before marker detection,
		// so a torn marker flag is never honoured.
		var valid []scannedEntry
		markerTicket := uint64(0)
		markerSeen := false
		// NextNonzero64 reads the flags words a page at a time and never
		// writes, so the scrubs below stay recovery's only mutations.
		next := func(from uint64) (uint64, uint64, bool) {
			return img.NextNonzero64(bufBase+entFlags, mem.LineSize, from, entries)
		}
		for s, flags, ok := next(0); ok; s, flags, ok = next(s + 1) {
			e := bufBase + mem.Addr(s*mem.LineSize)
			if flags&FlagValid == 0 {
				continue
			}
			se := scannedEntry{
				thread: t,
				addr:   e,
				typ:    EntryType(img.Read64(e + entType)),
				target: mem.Addr(img.Read64(e + entAddr)),
				old:    img.Read64(e + entOld),
				ticket: img.Read64(e + entSeq),
				flags:  flags,
			}
			size := img.Read64(e + entSize)
			meta := img.Read64(e + entMeta)
			if img.Read64(e+entCheck) != EntryChecksum(se.typ, se.target, se.old, size, se.ticket, meta) {
				img.Write64(e+entFlags, 0)
				rep.TornDiscarded++
				continue
			}
			valid = append(valid, se)
			if flags&FlagCommitMarker != 0 && (!markerSeen || se.ticket > markerTicket) {
				markerSeen = true
				markerTicket = se.ticket
			}
		}
		// Finish an interrupted commit: everything up to (and
		// including) the marker was committed; invalidate it rather
		// than roll it back (Figure 6b step 2). Ordering matters for
		// idempotence under crash-during-recovery: the markers must be
		// invalidated only after every entry they cover, newest marker
		// strictly last — otherwise a power cut between the marker's
		// invalidation and its covered entries' would leave committed
		// entries that a re-run, finding no marker, would wrongly roll
		// back (reachable when the commit range wraps the circular
		// buffer, putting covered entries at higher slots than the
		// marker).
		if markerSeen {
			rep.CommitsFinished++
		}
		var markers []scannedEntry
		for _, se := range valid {
			if markerSeen && se.ticket <= markerTicket {
				if se.flags&FlagCommitMarker != 0 {
					markers = append(markers, se)
					continue
				}
				img.Write64(se.addr+entFlags, 0)
				rep.EntriesInvalidated++
				continue
			}
			live = append(live, se)
		}
		sort.Slice(markers, func(i, j int) bool { return markers[i].ticket < markers[j].ticket })
		for _, se := range markers {
			img.Write64(se.addr+entFlags, 0)
			rep.EntriesInvalidated++
		}
	}
	// Roll back all uncommitted store mutations in reverse creation
	// order (Figure 6b step 3), across threads.
	sort.Slice(live, func(i, j int) bool { return live[i].ticket > live[j].ticket })
	for _, se := range live {
		if se.typ != EntryStore {
			// Sync entries carry only ordering metadata.
			img.Write64(se.addr+entFlags, 0)
			continue
		}
		img.Write64(se.target, se.old)
		img.Write64(se.addr+entFlags, 0)
		rep.RolledBack = append(rep.RolledBack, RecoveredEntry{
			Thread: se.thread, Ticket: se.ticket, Addr: se.target, Old: se.old,
		})
	}
	// Reset heads: logs are empty after recovery.
	for t := 0; t < threads; t++ {
		desc := DescAddr(t)
		if img.Read64(desc+descMagic) == Magic {
			img.Write64(desc+descHead, 0)
		}
	}
	return rep, nil
}
