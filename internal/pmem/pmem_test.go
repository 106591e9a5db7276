package pmem

import (
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
)

func newCtrl() (*sim.Engine, *Controller, *mem.Machine, config.Config) {
	eng := sim.NewEngine()
	cfg := config.Default()
	m := mem.NewMachine()
	return eng, New(eng, cfg, m), m, cfg
}

func lineData(b byte) [mem.LineSize]byte {
	var d [mem.LineSize]byte
	for i := range d {
		d[i] = b
	}
	return d
}

func TestWriteAcceptanceIsPersistencePoint(t *testing.T) {
	eng, c, m, cfg := newCtrl()
	line := mem.PMBase
	acked := sim.Cycle(0)
	c.SubmitPMWrite(line, lineData(7), func() { acked = eng.Now() })
	eng.Run(0)
	if m.Persistent.ByteAt(line) != 7 {
		t.Error("write did not persist")
	}
	wantAck := sim.Cycle(cfg.PMWriteToControllerCycles + cfg.PMAckCycles)
	if acked != wantAck {
		t.Errorf("ack at %d, want %d", acked, wantAck)
	}
	st := c.Stats()
	if st.PMWritesAccepted != 1 || st.PMWritesDrained != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestWriteSnapshotNotCurrentValue(t *testing.T) {
	eng, c, m, _ := newCtrl()
	line := mem.PMBase
	m.Volatile.SetByte(line, 99) // newer volatile value
	c.SubmitPMWrite(line, lineData(7), nil)
	eng.Run(0)
	if got := m.Persistent.ByteAt(line); got != 7 {
		t.Errorf("persisted %d, want the snapshot 7", got)
	}
}

func TestDRAMLineFlushIsNotDurable(t *testing.T) {
	eng, c, m, _ := newCtrl()
	line := mem.DRAMBase
	acked := false
	c.SubmitPMWrite(line, lineData(3), func() { acked = true })
	eng.Run(0)
	if !acked {
		t.Error("DRAM flush not acknowledged")
	}
	if m.Persistent.ByteAt(line) != 0 {
		t.Error("DRAM flush persisted")
	}
	if c.Stats().PMWritesAccepted != 0 {
		t.Error("DRAM flush counted as PM write")
	}
}

func TestWriteQueueBackPressure(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.PMWriteQueueEntries = 4
	cfg.PMBanks = 1
	m := mem.NewMachine()
	c := New(eng, cfg, m)
	n := 12
	ackTimes := make([]sim.Cycle, 0, n)
	for i := 0; i < n; i++ {
		line := mem.PMBase + mem.Addr(i*mem.LineSize)
		c.SubmitPMWrite(line, lineData(byte(i)), func() { ackTimes = append(ackTimes, eng.Now()) })
	}
	eng.Run(0)
	if len(ackTimes) != n {
		t.Fatalf("%d acks, want %d", len(ackTimes), n)
	}
	st := c.Stats()
	if st.WriteQueueFullEvents == 0 {
		t.Error("expected write-queue-full events with a 4-entry queue and 1 bank")
	}
	if st.MaxWriteQueueDepth > 4 {
		t.Errorf("queue depth %d exceeded capacity 4", st.MaxWriteQueueDepth)
	}
	// Later acks must be substantially delayed by the serialised media.
	last := ackTimes[len(ackTimes)-1]
	if uint64(last) < 8*cfg.PMWriteToMediaCycles {
		t.Errorf("last ack at %d: media serialisation not modelled", last)
	}
	// All data eventually persisted.
	for i := 0; i < n; i++ {
		line := mem.PMBase + mem.Addr(i*mem.LineSize)
		if m.Persistent.ByteAt(line) != byte(i) {
			t.Errorf("line %d lost", i)
		}
	}
}

func TestReadLatencyAndQueue(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.PMReadQueueEntries = 2
	m := mem.NewMachine()
	c := New(eng, cfg, m)
	var done []sim.Cycle
	for i := 0; i < 5; i++ {
		c.SubmitRead(mem.PMBase+mem.Addr(i*64), func() { done = append(done, eng.Now()) })
	}
	eng.Run(0)
	if len(done) != 5 {
		t.Fatalf("%d reads completed", len(done))
	}
	if done[0] != sim.Cycle(cfg.PMReadCycles) {
		t.Errorf("first read at %d, want %d", done[0], cfg.PMReadCycles)
	}
	// With a 2-entry read queue, the 5th read completes in the 3rd wave.
	if done[4] < sim.Cycle(3*cfg.PMReadCycles) {
		t.Errorf("read queue not limiting concurrency: 5th at %d", done[4])
	}
	if c.Stats().PMReads != 5 {
		t.Errorf("PMReads = %d", c.Stats().PMReads)
	}
}

func TestDRAMReadLatency(t *testing.T) {
	eng, c, _, cfg := newCtrl()
	var at sim.Cycle
	c.SubmitRead(mem.DRAMBase, func() { at = eng.Now() })
	eng.Run(0)
	if at != sim.Cycle(cfg.DRAMReadCycles) {
		t.Errorf("DRAM read at %d, want %d", at, cfg.DRAMReadCycles)
	}
}

// overflowCtrl drives a tiny-queue, single-bank controller hard enough
// that arrivals pile up in the overflow queue.
func overflowCtrl(n int) (*sim.Engine, *Controller) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.PMWriteQueueEntries = 2
	cfg.PMBanks = 1
	c := New(eng, cfg, mem.NewMachine())
	for i := 0; i < n; i++ {
		c.SubmitPMWrite(mem.PMBase+mem.Addr(i*mem.LineSize), lineData(byte(i)), nil)
	}
	return eng, c
}

func TestOverflowHighWaterSampled(t *testing.T) {
	eng, c := overflowCtrl(12)
	eng.Run(0)
	st := c.Stats()
	if st.MaxPendingArrivals == 0 {
		t.Fatal("no overflow observed; test setup too gentle")
	}
	if len(st.OverflowHighWater) == 0 {
		t.Fatal("no high-water samples recorded")
	}
	prev := 0
	for _, s := range st.OverflowHighWater {
		if s.Depth <= prev {
			t.Errorf("samples not strictly increasing: %+v", st.OverflowHighWater)
			break
		}
		prev = s.Depth
	}
	if last := st.OverflowHighWater[len(st.OverflowHighWater)-1]; last.Depth != st.MaxPendingArrivals {
		t.Errorf("last sample depth %d != MaxPendingArrivals %d", last.Depth, st.MaxPendingArrivals)
	}
}

// TestStatsSnapshotIsDeep: a Stats snapshot must never alias the live
// controller — mutating the snapshot's slice or growing the live one
// must not show through. Parallel sweep cells rely on this when their
// results (which embed snapshots) are read from other goroutines.
func TestStatsSnapshotIsDeep(t *testing.T) {
	eng, c := overflowCtrl(8)
	// Capture a snapshot mid-run, while the controller is still
	// appending samples.
	var mid Stats
	eng.Schedule(sim.Cycle(1), func() { mid = c.Stats() })
	eng.Run(0)
	final := c.Stats()
	if len(final.OverflowHighWater) <= len(mid.OverflowHighWater) {
		t.Skip("controller did not grow samples after the mid snapshot")
	}
	// The mid snapshot must not have grown with the controller.
	if len(mid.OverflowHighWater) > 0 {
		before := mid.OverflowHighWater[0]
		mid.OverflowHighWater[0] = OverflowSample{Cycle: 1 << 40, Depth: -1}
		if got := c.Stats().OverflowHighWater[0]; got != before {
			t.Errorf("snapshot mutation reached the controller: %+v", got)
		}
	}
	s1, s2 := c.Stats(), c.Stats()
	if len(s1.OverflowHighWater) > 0 {
		s1.OverflowHighWater[0].Depth = -7
		if s2.OverflowHighWater[0].Depth == -7 {
			t.Error("two snapshots share a backing array")
		}
	}
}

func TestSameLineWritesLastWins(t *testing.T) {
	eng, c, m, _ := newCtrl()
	line := mem.PMBase
	c.SubmitPMWrite(line, lineData(1), nil)
	c.SubmitPMWrite(line, lineData(2), nil)
	eng.Run(0)
	if got := m.Persistent.ByteAt(line); got != 2 {
		t.Errorf("persisted %d, want 2 (submission order)", got)
	}
}

// streamGap is the cycle gap of startStream's writes: well below the
// on-chip transit latency, so some write is always in transit, and
// wide enough that the Table I banks keep the write queue from
// filling, so the overflow queue stays empty.
const streamGap = 20

// startStream submits one write to the same PM line every streamGap
// cycles, without end; run the engine to a cycle limit.
func startStream(eng *sim.Engine, c *Controller) {
	data := lineData(1)
	var submit func()
	submit = func() {
		c.SubmitPMWrite(mem.PMBase, data, nil)
		eng.Schedule(streamGap, submit)
	}
	eng.Schedule(0, submit)
}

// A write stream that never lets on-chip transit empty reuses the
// controller's arrays instead of growing them with the stream's
// length. One run of many writes, because AllocsPerRun truncates the
// per-run average and would hide amortized growth.
func TestControllerStreamZeroAlloc(t *testing.T) {
	const writes = 50_000
	eng, c, _, _ := newCtrl()
	startStream(eng, c)
	stream := func() { eng.Run(eng.Now() + writes*streamGap) }
	if n := testing.AllocsPerRun(1, stream); n != 0 {
		t.Errorf("never-empty write stream allocated %.0f times over %d writes, want 0", n, writes)
	}
	if c.transit.Len() == 0 {
		t.Error("transit emptied; the stream should keep writes in flight")
	}
	if n := c.Stats().WriteQueueFullEvents; n != 0 {
		t.Errorf("%d arrivals found the write queue full; the stream should not overflow", n)
	}
}

// BenchmarkControllerStream measures one PM write through a controller
// whose on-chip transit never empties, from submission to media drain,
// after a warm-up so that even a one-iteration run reports the
// steady-state allocations.
func BenchmarkControllerStream(b *testing.B) {
	eng, c, _, _ := newCtrl()
	startStream(eng, c)
	eng.Run(1000 * streamGap)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(eng.Now() + sim.Cycle(b.N)*streamGap)
}
