package strandweaver_test

import (
	"strings"
	"testing"

	sw "strandweaver"
	"strandweaver/internal/redolog"
	"strandweaver/internal/undolog"
)

// TestPublicAPIQuickstart exercises the README's quickstart path end to
// end through the exported surface only.
func TestPublicAPIQuickstart(t *testing.T) {
	sys := sw.NewSystem(sw.DefaultConfig(), sw.StrandWeaver)
	rt := sw.NewRuntime(sys, sw.SFR, 2, sw.DefaultRuntimeOptions())

	lock := sw.DRAMBase + 4096
	cell := sw.PMBase + sw.HeapOffset
	sys.Mem.Volatile.Write64(cell, 100)
	sys.Mem.Persistent.Write64(cell, 100)

	worker := func(c *sw.Core) {
		for i := 0; i < 5; i++ {
			rt.Region(c, []sw.Addr{lock}, func(tx *sw.Tx) {
				tx.Store(cell, tx.Load(cell)+1)
			})
		}
		rt.Finish(c)
	}
	if _, err := sys.Run([]sw.Worker{worker, worker}, 0); err != nil {
		t.Fatal(err)
	}
	img := sys.Mem.CrashImage()
	rep, err := sw.Recover(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RolledBack) != 0 {
		t.Errorf("rolled back %d after clean finish", len(rep.RolledBack))
	}
	if got := img.Read64(cell); got != 110 {
		t.Errorf("cell = %d, want 110", got)
	}
}

func TestPublicAPIStructures(t *testing.T) {
	sys := sw.NewSystem(sw.DefaultConfig(), sw.StrandWeaver)
	rt := sw.NewRuntime(sys, sw.TXN, 1, sw.DefaultRuntimeOptions())
	arena := sw.NewPMArena(sw.HeapOffset, 1<<28)
	host := sw.Host{Sys: sys}

	q := sw.NewQueue(host, arena, 64)
	tree := sw.NewRBTree(host, arena)
	lock := sw.DRAMBase + 64

	worker := func(c *sw.Core) {
		rt.Region(c, []sw.Addr{lock}, func(tx *sw.Tx) {
			q.Push(tx, 42)
			tree.Insert(tx, 7, 70)
		})
		rt.Finish(c)
		if v, ok := tree.Lookup(c, 7); !ok || v != 70 {
			t.Errorf("tree lookup = %d,%v", v, ok)
		}
	}
	if _, err := sys.Run([]sw.Worker{worker}, 0); err != nil {
		t.Fatal(err)
	}
	img := sys.Mem.CrashImage()
	if _, err := sw.Recover(img, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw.VerifyQueue(img, q.Header(), q.Slots()); err != nil {
		t.Error(err)
	}
	if err := sw.VerifyRBTree(img, tree.Header()); err != nil {
		t.Error(err)
	}
}

func TestPublicAPILitmus(t *testing.T) {
	p := sw.LitmusProgram{{sw.LSt(0, 1), sw.LPB(), sw.LSt(1, 1)}}
	states, err := sw.AllowedStates(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 3 {
		t.Errorf("PB pair allows %d states, want 3", len(states))
	}
	if ok, err := sw.StateAllowed(p, sw.LitmusState{1: 1}); err != nil || ok {
		t.Errorf("B-without-A: allowed %v, error %v; want forbidden by the barrier", ok, err)
	}
	res, err := sw.CheckLitmus(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashPoints == 0 {
		t.Error("no crash points exercised")
	}
	// A media-free plan leaves the run alone, so its cuts fall where
	// the fault-free check's do.
	torn, err := sw.CheckLitmusWithFaults(p, 32, sw.FaultPlan{Seed: 7, TornPersists: true, DropProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if torn.TotalCycles != res.TotalCycles || torn.CrashPoints != res.CrashPoints {
		t.Errorf("torn-persist check ran %d cycles with %d crash points, fault-free %d with %d",
			torn.TotalCycles, torn.CrashPoints, res.TotalCycles, res.CrashPoints)
	}
}

// TestPublicAPIAllowedStatesLimit: the crash-state enumeration of a
// program past its 64-store limit is an error naming the limit, not a
// panic.
func TestPublicAPIAllowedStatesLimit(t *testing.T) {
	p := sw.LitmusProgram{nil}
	for i := 0; i < 65; i++ {
		p[0] = append(p[0], sw.LSt(i, uint64(i+1)))
	}
	if _, err := sw.AllowedStates(p); err == nil || !strings.Contains(err.Error(), "limited to 64 stores") {
		t.Errorf("AllowedStates error = %v, want the 64-store limit", err)
	}
	if _, err := sw.StateAllowed(p, sw.LitmusState{}); err == nil || !strings.Contains(err.Error(), "limited to 64 stores") {
		t.Errorf("StateAllowed error = %v, want the 64-store limit", err)
	}
}

// TestPublicAPIRelaxLimit: a program past the crash-cut masks' 64-store
// limit is an error, not a panic. The limit binds programs with stores
// on several threads; one-thread programs are proved by order
// inclusion.
func TestPublicAPIRelaxLimit(t *testing.T) {
	p := sw.LitmusProgram{nil, {sw.LSt(64, 65)}}
	for i := 0; i < 64; i++ {
		p[0] = append(p[0], sw.LSt(i, uint64(i+1)))
	}
	if _, err := sw.RelaxLitmusProgram("big", p, nil); err == nil || !strings.Contains(err.Error(), "64") {
		t.Fatalf("RelaxLitmusProgram error = %v, want the 64-store limit", err)
	}
}

func TestPublicAPIHarness(t *testing.T) {
	r, err := sw.Run(sw.Spec{Benchmark: "queue", Model: sw.TXN, Design: sw.HOPS, Threads: 2, OpsPerThread: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Error("no cycles measured")
	}
	names := sw.BenchmarkNames()
	if len(names) != 8 {
		t.Errorf("%d benchmarks, want 8", len(names))
	}
	var sb strings.Builder
	rows, err := sw.Table2(sw.ExpOptions{Threads: 2, OpsPerThread: 5, Benchmarks: []string{"queue"}})
	if err != nil {
		t.Fatal(err)
	}
	sw.PrintTable2(&sb, rows)
	if !strings.Contains(sb.String(), "queue") {
		t.Error("Table II output missing benchmark")
	}
}

func TestParseHelpers(t *testing.T) {
	d, err := sw.ParseDesign("strandweaver")
	if err != nil || d != sw.StrandWeaver {
		t.Errorf("ParseDesign: %v %v", d, err)
	}
	m, err := sw.ParseModel("sfr")
	if err != nil || m != sw.SFR {
		t.Errorf("ParseModel: %v %v", m, err)
	}
}

// TestPublicAPIExperimentSurface drives the remaining exported
// experiment surface at tiny scale: crash runs, sweeps, ablations and
// their printers.
func TestPublicAPIExperimentSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var sb strings.Builder

	spec := sw.Spec{Benchmark: "queue", Model: sw.SFR, Design: sw.StrandWeaver, Threads: 2, OpsPerThread: 6}
	half := func(end sw.Cycle) []sw.Cycle { return []sw.Cycle{end / 2} }
	if _, err := sw.RunWithCrash(spec, half); err != nil {
		t.Errorf("RunWithCrash: %v", err)
	}

	g, err := sw.RunGrid(sw.ExpOptions{Threads: 2, OpsPerThread: 6, Benchmarks: []string{"queue"}})
	if err != nil {
		t.Fatal(err)
	}
	sw.PrintFig7(&sb, g)
	sw.PrintFig8(&sb, g)
	sw.PrintClaims(&sb, sw.ComputeClaims(g))

	f9, err := sw.Fig9(sw.ExpOptions{Threads: 2, OpsPerThread: 6, Benchmarks: []string{"queue"}})
	if err != nil {
		t.Fatal(err)
	}
	sw.PrintFig9(&sb, f9)
	f10, err := sw.Fig10(sw.ExpOptions{Threads: 2, OpsPerThread: 8}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	sw.PrintFig10(&sb, f10)

	la, err := sw.LoggingAblation(sw.ExpOptions{Threads: 2, OpsPerThread: 6}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	sw.PrintLoggingAblation(&sb, la)
	qd, err := sw.PersistQueueDepthAblation(sw.ExpOptions{Threads: 2, OpsPerThread: 6}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	sw.PrintQueueDepthAblation(&sb, qd)
	hb, err := sw.HOPSBufferAblation(sw.ExpOptions{Threads: 2, OpsPerThread: 6}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	sw.PrintHOPSBufferAblation(&sb, hb)

	for _, want := range []string{"Figure 7", "Figure 8", "Figure 9", "Figure 10", "Headline", "redo", "HOPS"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("experiment surface output missing %q", want)
		}
	}

	// Allocators.
	d := sw.NewDRAMArena(1<<20, 1<<16)
	if a := d.Alloc(nil, 64); a < sw.DRAMBase {
		t.Error("DRAM arena out of range")
	}
}

// TestPublicRecoverHostileDescriptors: a crash image is untrusted
// input, so both recoveries must return a report, never panic, on a
// descriptor whose log puts slot 0's flags word across a 4 KiB page
// boundary, and on one whose slots wrap past 2^64 (slot 1's sequence
// word spans the wrap). Each log holds two entries whose flags are set
// over an unwritten payload: torn, so both are scrubbed.
func TestPublicRecoverHostileDescriptors(t *testing.T) {
	// Descriptor and entry layout shared by the undo and redo logs.
	const (
		descMagic   = 0
		descBufBase = 8
		descEntries = 16
		entFlags    = 40
	)
	base := sw.NewSystem(sw.DefaultConfig(), sw.StrandWeaver).Mem.Persistent
	logs := []struct {
		kind    string
		desc    sw.Addr
		magic   uint64
		recover func(*sw.Image) (int, error)
	}{
		{"undo", undolog.DescAddr(0), undolog.Magic, func(img *sw.Image) (int, error) {
			rep, err := sw.Recover(img, 1)
			if rep == nil {
				return -1, err
			}
			return rep.TornDiscarded, err
		}},
		{"redo", redolog.DescAddr(0), redolog.Magic, func(img *sw.Image) (int, error) {
			rep, err := sw.RecoverRedo(img, 1)
			if rep == nil {
				return -1, err
			}
			return rep.TornDiscarded, err
		}},
	}
	for _, l := range logs {
		for _, bufBase := range []sw.Addr{sw.PMBase + 4052, ^sw.Addr(99)} {
			img := base.Clone()
			img.Write64(l.desc+descMagic, l.magic)
			img.Write64(l.desc+descBufBase, uint64(bufBase))
			img.Write64(l.desc+descEntries, 4)
			for s := sw.Addr(0); s < 2; s++ {
				img.Write64(bufBase+s*sw.LineSize+entFlags, 1)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s log at %#x: recovery panicked: %v", l.kind, uint64(bufBase), r)
					}
				}()
				torn, err := l.recover(img)
				if err != nil || torn != 2 {
					t.Errorf("%s log at %#x: TornDiscarded %d, err %v; want 2 torn entries and a report", l.kind, uint64(bufBase), torn, err)
				}
				for s := sw.Addr(0); s < 2; s++ {
					if f := img.Read64(bufBase + s*sw.LineSize + entFlags); f != 0 {
						t.Errorf("%s log at %#x: slot %d flags %#x after recovery, want scrubbed", l.kind, uint64(bufBase), s, f)
					}
				}
			}()
		}
	}
}
