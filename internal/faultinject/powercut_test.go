package faultinject

import (
	"math/rand"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// oneCutCheckpoint builds a random multi-controller checkpoint whose
// outcome a crash image shows: writes to distinct, never-written lines,
// submitted over time to a topology with a shallow write queue (so
// writes wait in transit and in overflow queues at the cut), each word
// of write i holding i+1 in its high bits.
func oneCutCheckpoint(r *rand.Rand) *machine.Checkpoint {
	cfg := config.Default()
	cfg.PMControllers = 1 << (1 + r.Intn(3))
	cfg.PMWriteQueueEntries = 1 + r.Intn(2)
	eng := sim.NewEngine()
	m := mem.NewMachine()
	tp := pmem.NewTopology(eng, cfg, m)
	n := 1 + r.Intn(40)
	at := sim.Cycle(0)
	for i, line := range r.Perm(n) {
		var data [mem.LineSize]byte
		for w := 0; w < mem.LineWords; w++ {
			v := uint64(i+1)<<8 | uint64(w+1)
			for b := 0; b < 8; b++ {
				data[w*8+b] = byte(v >> (8 * b))
			}
		}
		addr := mem.PMBase + mem.Addr(line*mem.LineSize)
		at += sim.Cycle(r.Intn(40))
		eng.ScheduleAt(at, func() { tp.SubmitPMWrite(addr, data, nil) })
	}
	eng.Run(sim.Cycle(r.Intn(int(at) + 3000)))
	return &machine.Checkpoint{At: eng.Now(), Mem: m.Snapshot(), PM: tp.Snapshot()}
}

// TestPowerCutIsOneCutOfTheStream: at every controller count the power
// cut truncates the machine-wide stream of unaccepted writes at one
// point. Read from the crash image, every write that landed or tore
// precedes every write that was dropped, in submission order, and at
// most one write tears.
func TestPowerCutIsOneCutOfTheStream(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		cp := oneCutCheckpoint(r)
		ws := cp.PM.Unaccepted
		for i := 1; i < len(ws); i++ {
			if ws[i].Data[1] <= ws[i-1].Data[1] {
				t.Fatalf("case %d: unaccepted stream out of submission order at %d", iter, i)
			}
		}
		fi := New(Plan{Seed: r.Uint64(), TornPersists: true, DropProb: r.Float64()})
		img := fi.CheckpointImage(cp)
		torn, dropped := 0, -1
		for i, w := range ws {
			kept := 0
			for word := 0; word < mem.LineWords; word++ {
				if img.Read64(w.Line+mem.Addr(8*word)) != 0 {
					kept++
				}
			}
			switch {
			case kept == 0:
				if dropped < 0 {
					dropped = i
				}
				continue
			case kept < mem.LineWords:
				torn++
			}
			if dropped >= 0 {
				t.Fatalf("case %d: write %d of %d landed after write %d was dropped", iter, i, len(ws), dropped)
			}
		}
		st := fi.Stats()
		if torn > 1 || st.TornLines > 1 {
			t.Fatalf("case %d: %d writes tore (%d counted), want at most one", iter, torn, st.TornLines)
		}
		if got := st.LandedLines + st.TornLines + st.DroppedLines; got != uint64(len(ws)) {
			t.Fatalf("case %d: %d outcomes counted for %d unaccepted writes", iter, got, len(ws))
		}
	}
}
