package pmem

import (
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
// A Replayer applies a log to a freshly built, never-run topology of
// the same machine through the same handlers, so the replayed topology
// stands where the recorded one stood at any cycle (docs/SNAPSHOT.md).
// Only entry points are logged: a read completion runs core code that
// may submit, and those submissions are entries of their own, so on
// replay a read completes into a no-op and writes carry nil acks.
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
	logMediaDone                  // inflight[idx].doneFn
	logMediaRetry                 // inflight[idx].retryFn
	logPersistWord                // Topology.PersistVisible; value in words, size in idx
)

type logEntry struct {
	at   sim.Cycle
	addr mem.Addr
	// idx is the drain entry's index in its controller's inflight list
	// (banks finish out of order, so the entry is named by position) or
	// a persisted word's size in bytes.
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
// Record(nil). The machine's other components never see the log.
func (t *Topology) Record(l *Log) {
	t.log = l
	for _, c := range t.ctrls {
		c.log = l
	}
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

// inflightIndex returns e's position in c.inflight.
func (c *Controller) inflightIndex(e *drainEntry) int {
	for i, x := range c.inflight {
		if x == e {
			return i
		}
	}
	panic("pmem: drain entry not in flight")
}

// Replayer applies a Log to a fresh topology, in log order.
type Replayer struct {
	log        *Log
	t          *Topology
	next       int
	line, word int
}

// Replay returns a replayer of l onto t, which must be freshly built
// for the machine l was recorded on and never run, with its fault hooks
// installed as the recorded run's were (a fresh injector armed on it
// redraws the recorded run's stream).
func (t *Topology) Replay(l *Log) *Replayer { return &Replayer{log: l, t: t} }

// noRead is the completion replayed reads carry.
func noRead() {}

// To applies every entry logged before cycle at, moving the engine's
// clock to each entry's cycle first, and leaves the clock at at. It
// never fires an event: what the handlers schedule is dropped at each
// clock move, because the log already holds its firings. The topology
// then stands where the recorded one stood when a pre-spawn event at
// at fired. Successive calls must not decrease at.
func (r *Replayer) To(at sim.Cycle) {
	t, eng := r.t, r.t.eng
	for ; r.next < r.log.entries.len(); r.next++ {
		e := r.log.entries.at(r.next)
		if e.at >= at {
			break
		}
		if e.at != eng.Now() {
			eng.Restore(e.at)
		}
		c := t.ctrls[e.ctrl]
		switch e.kind {
		case logSubmitPM:
			c.SubmitPMWrite(e.addr, *r.log.lines.at(r.line), nil)
			r.line++
		case logSubmitRead:
			c.SubmitRead(e.addr, noRead)
		case logDRAMWrite:
			c.SubmitDRAMWrite(e.addr)
		case logArrive:
			c.arriveFn()
		case logReadDone:
			c.readDoneFn()
		case logMediaDone:
			c.inflight[e.idx].doneFn()
		case logMediaRetry:
			c.inflight[e.idx].retryFn()
		case logPersistWord:
			t.PersistVisible(e.addr, *r.log.words.at(r.word), uint8(e.idx))
			r.word++
		}
	}
	eng.Restore(at)
}
