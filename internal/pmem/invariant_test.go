package pmem

import (
	"slices"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

// startHook records the line of every write's first media attempt —
// the moment a bank takes the write — and draws the verdicts from a
// seeded media hook.
type startHook struct {
	mediaHook
	starts []mem.Addr
}

func (h *startHook) MediaWrite(line mem.Addr, attempt int) MediaVerdict {
	if attempt == 0 {
		h.starts = append(h.starts, line)
	}
	return h.mediaHook.MediaWrite(line, attempt)
}

// TestControllerInvariants drives controllers with fewer banks than
// write-queue entries, a two-entry read queue and seeded media faults
// and delays through bursts of line writes (each to a line of its own)
// and PM reads, and checks after every event that at each controller
//   - the write queue holds at most PMWriteQueueEntries writes, and the
//     read queue at most PMReadQueueEntries reads;
//   - the accepted writes are a prefix of the controller's submissions,
//     so at one controller a prefix of the submission stream;
//   - the queued writes are accepted ones, in acceptance order;
//   - banks take writes in acceptance order, at most PMBanks at a time,
//     so the writes no bank has started are the newest accepted ones.
func TestControllerInvariants(t *testing.T) {
	var seen runShape
	for seed := uint64(1); seed <= 8; seed++ {
		for _, n := range []int{1, 2} {
			got := checkControllerRun(t, seed, n)
			seen.full += got.full
			seen.readWaits += got.readWaits
			seen.outOfOrder += got.outOfOrder
		}
	}
	if seen.full == 0 || seen.readWaits == 0 || seen.outOfOrder == 0 {
		t.Errorf("the runs never %+v: filled the write queue, queued a read or drained out of acceptance order", seen)
	}
}

// runShape counts the events of a run that found the write queue full
// or queued a read, and the drains out of acceptance order.
type runShape struct{ full, readWaits, outOfOrder int }

// checkControllerRun runs one seeded case to its end, checking the
// invariants after every event.
func checkControllerRun(t *testing.T, seed uint64, n int) runShape {
	t.Helper()
	cfg := config.Default()
	cfg.PMControllers = n
	cfg.PMBanks = 3
	cfg.PMWriteQueueEntries = 8
	cfg.PMReadQueueEntries = 2
	eng := sim.NewEngine()
	tp := NewTopology(eng, cfg, mem.NewMachine(), false)
	hooks := make([]*startHook, n)
	for i, c := range tp.Controllers() {
		hooks[i] = &startHook{mediaHook: mediaHook{state: seed<<8 + uint64(i), delay: 700, fail: 250, late: 250}}
		c.SetFaultHook(hooks[i])
	}

	// submitted[i] is controller i's submissions in order; all is the
	// machine's.
	submitted := make([][]mem.Addr, n)
	var all []mem.Addr
	h := &mediaHook{state: ^seed}
	left := 60
	var step func()
	step = func() {
		for k := h.next() % 7; k > 0; k-- {
			if h.next()%4 == 0 {
				tp.SubmitRead(pmLine(int(h.next()%64)), func() {})
				continue
			}
			line := pmLine(len(all))
			tp.SubmitPMWrite(line, lineData(byte(len(all))), nil)
			submitted[tp.IndexOf(line)] = append(submitted[tp.IndexOf(line)], line)
			all = append(all, line)
		}
		if left--; left > 0 {
			eng.Schedule(sim.Cycle(h.next()%500), step)
		}
	}
	eng.Schedule(0, step)

	var shape runShape
	fronts, drains := make([]mem.Addr, n), make([]int, n)
	for events := 1; eng.Step(^sim.Cycle(0)); events++ {
		s := tp.Snapshot()
		unaccepted := make([][]mem.Addr, n)
		var stream []mem.Addr
		for _, w := range s.Unaccepted {
			unaccepted[tp.IndexOf(w.Line)] = append(unaccepted[tp.IndexOf(w.Line)], w.Line)
			stream = append(stream, w.Line)
		}
		if n == 1 && !slices.Equal(stream, all[len(all)-len(stream):]) {
			t.Fatalf("seed %d, event %d: the unaccepted writes are not the stream's suffix", seed, events)
		}
		for i, c := range tp.Controllers() {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d, %d controllers, event %d, controller %d: "+format, append([]any{seed, n, events, i}, args...)...)
			}
			sub, accepted, drained := submitted[i], int(c.stats.PMWritesAccepted), int(c.stats.PMWritesDrained)
			queued := lines(s.Ctrls[i].Accepted)
			if len(queued) > cfg.PMWriteQueueEntries || c.readAcks.Len() > cfg.PMReadQueueEntries {
				fail("%d writes and %d reads queued", len(queued), c.readAcks.Len())
			}
			if !slices.Equal(unaccepted[i], sub[accepted:]) {
				fail("the %d accepted writes are not a prefix of the %d submitted", accepted, len(sub))
			}
			if len(queued) != accepted-drained || !isSubsequence(queued, sub[:accepted]) {
				fail("the write queue does not hold the undrained accepted writes in acceptance order")
			}
			starts := hooks[i].starts
			busy := len(starts) - drained
			if busy > cfg.PMBanks || !slices.Equal(starts, sub[:len(starts)]) {
				fail("%d writes on banks; starts out of acceptance order", busy)
			}
			idle := accepted - len(starts)
			if !slices.Equal(queued[len(queued)-idle:], sub[len(starts):accepted]) || c.waiting != idle {
				fail("the %d writes no bank has started are not the newest accepted", idle)
			}
			if drained > drains[i] && slices.Contains(queued, fronts[i]) {
				shape.outOfOrder++
			}
			if c.pendingReads.Len() > 0 {
				shape.readWaits++
			}
			fronts[i], drains[i] = 0, drained
			if len(queued) > 0 {
				fronts[i] = queued[0]
			}
		}
	}
	st := tp.Stats()
	if int(st.PMWritesDrained) != len(all) {
		t.Fatalf("seed %d: %d of %d writes drained", seed, st.PMWritesDrained, len(all))
	}
	shape.full = int(st.WriteQueueFullEvents)
	return shape
}

func lines(ws []LineWrite) []mem.Addr {
	out := make([]mem.Addr, len(ws))
	for i, w := range ws {
		out[i] = w.Line
	}
	return out
}

// isSubsequence reports whether sub's elements appear in s in order.
func isSubsequence(sub, s []mem.Addr) bool {
	for _, x := range s {
		if len(sub) > 0 && sub[0] == x {
			sub = sub[1:]
		}
	}
	return len(sub) == 0
}
