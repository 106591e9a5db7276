package pmem

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"unsafe"

	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// Log is the ordered record of one run's crash-visible PM history:
// every call that changes the persistent image, a controller's
// unaccepted or in-flight writes, its statistics or an armed fault
// injector's stream, each stamped with the cycle it ran at. Under ADR
// the controller's acceptance is the persistence point, so that history
// is the controllers' own steps — their entry points and their event
// thunks — plus the eADR design's persist-at-visibility word writes.
// The zero Log is empty and ready to record (Topology.Record).
//
// A Walker drives a freshly built, never-run topology of the same
// machine through a log: the logged entry points are applied at their
// logged places and the controllers' own events fire from the
// topology's engine. A replay so stands where the recorded topology
// stood at any cycle, and a resimulation where the topology of a run
// with the same cores under other media faults stood (docs/SNAPSHOT.md).
// Only entry points are applied: a read completion runs core code that
// may submit, and those submissions are entries of their own, so in a
// walk a read completes into a no-op and writes carry nil acks.
type Log struct {
	entries chunked[logEntry]
	// lines holds the SubmitPMWrite payloads and words the
	// persist-at-visibility values, each in entry order.
	lines chunked[[mem.LineSize]byte]
	words chunked[uint64]
}

// logKind names the logged call.
type logKind uint8

const (
	logSubmitPM    logKind = iota // SubmitPMWrite of a PM line; payload in lines
	logSubmitRead                 // SubmitRead
	logDRAMWrite                  // SubmitDRAMWrite
	logArrive                     // arriveFn
	logReadDone                   // readDoneFn
	logMediaDone                  // a drain entry's doneFn
	logMediaRetry                 // a drain entry's retryFn
	logPersistWord                // Topology.PersistVisible; value in words, size in idx
	numLogKinds
)

type logEntry struct {
	at   sim.Cycle
	addr mem.Addr
	// idx is a persisted word's size in bytes.
	idx  uint32
	ctrl uint16
	kind logKind
}

// Bytes reports the bytes the log's contents take: what it holds once
// compacted.
func (l *Log) Bytes() uint64 {
	return uint64(l.entries.len())*uint64(unsafe.Sizeof(logEntry{})) +
		uint64(l.lines.len())*mem.LineSize + uint64(l.words.len())*8
}

// Compact trims the log's storage to its contents.
func (l *Log) Compact() {
	l.entries.clip()
	l.lines.clip()
	l.words.clip()
}

func (l *Log) add(kind logKind, at sim.Cycle, ctrl int, addr mem.Addr, idx int) {
	l.entries.push(logEntry{at: at, addr: addr, idx: uint32(idx), ctrl: uint16(ctrl), kind: kind})
}

// chunkLen is the length of every full chunk of a chunked sequence.
const chunkLen = 1 << 11

// chunked is an append-only sequence held in chunks of chunkLen
// elements, so a long recording never copies what it holds and leaves
// no outgrown arrays behind. The last chunk grows by doubling up to
// chunkLen, so a short log stays small.
type chunked[T any] struct {
	full [][]T
	tail []T
}

func (c *chunked[T]) push(v T) {
	if len(c.tail) == cap(c.tail) {
		if len(c.tail) == chunkLen {
			c.full = append(c.full, c.tail)
			c.tail = make([]T, 0, chunkLen)
		} else {
			grown := make([]T, len(c.tail), min(max(2*len(c.tail), 16), chunkLen))
			copy(grown, c.tail)
			c.tail = grown
		}
	}
	c.tail = append(c.tail, v)
}

func (c *chunked[T]) len() int { return len(c.full)*chunkLen + len(c.tail) }

// at returns element i.
func (c *chunked[T]) at(i int) *T {
	if k := i / chunkLen; k < len(c.full) {
		return &c.full[k][i%chunkLen]
	}
	return &c.tail[i-len(c.full)*chunkLen]
}

func (c *chunked[T]) clip() { c.tail = slices.Clone(c.tail) }

// Record makes every controller and PersistVisible append to l until
// Record(nil). The machine's other components never see the log. A
// walk applies the log to a freshly built topology, so a recording
// that is to be walked starts on an Idle topology.
func (t *Topology) Record(l *Log) { t.log = l }

// Idle reports whether the topology stands as NewTopology built it: no
// PM write ever submitted, no PM read outstanding and no traffic
// counted.
func (t *Topology) Idle() bool {
	if t.submitSeq != 0 {
		return false
	}
	for _, c := range t.ctrls {
		if c.readAcks.Len() != 0 || c.pendingReads.Len() != 0 || !reflect.DeepEqual(c.stats, Stats{}) {
			return false
		}
	}
	return true
}

// PersistVisible lands a store's bytes, at a PM address, in the
// persistent image at its visibility point: the persistence point of a
// design whose caches are inside the persistence domain (eADR).
func (t *Topology) PersistVisible(addr mem.Addr, value uint64, size uint8) {
	if t.log != nil {
		t.log.add(logPersistWord, t.eng.Now(), 0, addr, int(size))
		t.log.words.push(value)
	}
	img := t.machine.Persistent
	switch size {
	case 8:
		img.Write64(addr, value)
	case 4:
		img.Write32(addr, uint32(value))
	case 1:
		img.SetByte(addr, byte(value))
	}
}

// fire counts one of the controller's own events and logs it while
// recording. It inlines into the event thunks, so an unrecorded run
// pays an increment and a nil check.
func (c *Controller) fire(kind logKind) {
	c.fired[kind]++
	if c.t.log != nil {
		c.logFired(kind)
	}
}

func (c *Controller) logFired(kind logKind) { c.t.log.add(kind, c.t.eng.Now(), c.index, 0, 0) }

// Walker drives a fresh topology through a Log, in log order. It
// applies each logged entry point — a PM submission, a read, a DRAM
// write, a word persisted at visibility — at its logged cycle and
// place, and lets the topology's own events (arrivals, read
// completions, media writes and retries) fire from its engine, which
// holds nothing else. Each logged event the walk matches must fire at
// its logged cycle and place among the entry points; a walk that
// leaves the log fails (ErrDiverged) and stays failed.
//
// A replay (Topology.Replay) walks the topology's own run: the fault
// hooks are armed as the recorded run's were, every logged event is
// matched, and the walk is that run's persistence domain, cycle for
// cycle. A resimulation (Topology.Resimulate) walks a media-free run
// of the same machine with media faults armed: the media writes and
// retries are the walk's own, and only arrivals and read completions
// are matched. docs/SNAPSHOT.md states when that walk is the armed
// run's persistence domain; the walk checks the part that depends on
// the run — that no arrival finds its write queue full — at every
// arrival.
type Walker struct {
	log        *Log
	t          *Topology
	next       int
	line, word int
	// resim marks a resimulation: logged media events are counted in
	// skipped, not matched.
	resim   bool
	skipped uint64
	// matched[c][k] counts the events of kind k on controller c the walk
	// has matched.
	matched [][numLogKinds]uint64
	err     error
}

// ErrDiverged reports a walk that left its log: a matched event did not
// fire at its logged place, or a resimulated arrival found its write
// queue full.
var ErrDiverged = errors.New("pmem: walk diverged from its log")

// Replay returns a walker of l onto t, which must be freshly built for
// the machine l was recorded on and never run, with its fault hooks
// installed as the recorded run's were (a fresh injector armed on it
// redraws the recorded run's stream).
func (t *Topology) Replay(l *Log) *Walker {
	return &Walker{log: l, t: t, matched: make([][numLogKinds]uint64, len(t.ctrls))}
}

// Resimulate returns a walker of l onto t, which must be freshly built
// for the machine l was recorded on and never run; l's run drew no
// media fault, and t's hooks are the ones to resimulate it under.
func (t *Topology) Resimulate(l *Log) *Walker {
	w := t.Replay(l)
	w.resim = true
	return w
}

// To walks every entry logged before cycle at and fires every event due
// before at, and leaves the clock at at: the topology then stands where
// the walked run's stood when a pre-spawn event at at fired. Successive
// calls must not decrease at.
func (w *Walker) To(at sim.Cycle) error {
	if err := w.walk(at); err != nil {
		return err
	}
	w.t.eng.Advance(at)
	return nil
}

// Finish walks the rest of the log, fires every remaining event and
// returns the cycle the clock stops at. A resimulation fails, too,
// when that cycle precedes the log's last entry (the media writes
// finished before the logged run's did, so the logged run's end says
// nothing of the walked one's).
func (w *Walker) Finish() (sim.Cycle, error) {
	if err := w.walk(^sim.Cycle(0)); err != nil {
		return 0, err
	}
	eng := w.t.eng
	for eng.Step(^sim.Cycle(0)) {
	}
	if n := w.log.entries.len(); w.resim && n > 0 && eng.Now() < w.log.entries.at(n-1).at {
		return 0, w.fail("the walk's last media write precedes the log's end")
	}
	return eng.Now(), nil
}

// MediaEvents reports a finished resimulation's media writes and
// retries: those its log holds and those the walk fired.
func (w *Walker) MediaEvents() (logged, walked uint64) {
	for _, c := range w.t.ctrls {
		walked += c.fired[logMediaDone] + c.fired[logMediaRetry]
	}
	return w.skipped, walked
}

func (w *Walker) fail(why string) error {
	w.err = fmt.Errorf("%w at entry %d: %s", ErrDiverged, w.next, why)
	return w.err
}

// walk applies every entry logged before cycle at.
func (w *Walker) walk(at sim.Cycle) error {
	if w.err != nil {
		return w.err
	}
	t, eng := w.t, w.t.eng
	for ; w.next < w.log.entries.len(); w.next++ {
		e := w.log.entries.at(w.next)
		if e.at >= at {
			break
		}
		eng.Advance(e.at)
		c := t.ctrls[e.ctrl]
		switch e.kind {
		case logSubmitPM:
			c.SubmitPMWrite(e.addr, *w.log.lines.at(w.line), nil)
			w.line++
		case logSubmitRead:
			c.SubmitRead(e.addr, nop)
		case logDRAMWrite:
			c.SubmitDRAMWrite(e.addr)
		case logPersistWord:
			t.PersistVisible(e.addr, *w.log.words.at(w.word), uint8(e.idx))
			w.word++
		case logMediaDone, logMediaRetry:
			if w.resim {
				w.skipped++
				continue
			}
			fallthrough
		default:
			// The controller's own event: it must be the next of its kind
			// to fire, and fire at this cycle, before anything logged
			// after it.
			w.matched[e.ctrl][e.kind]++
			n := w.matched[e.ctrl][e.kind]
			if c.fired[e.kind] != n-1 {
				return w.fail("an event fired before its logged cycle")
			}
			for c.fired[e.kind] < n && eng.Step(e.at) {
			}
			if c.fired[e.kind] != n {
				return w.fail("an event did not fire at its logged cycle")
			}
			if w.resim && c.stats.WriteQueueFullEvents != 0 {
				return w.fail("an arrival found its write queue full")
			}
		}
	}
	return nil
}
