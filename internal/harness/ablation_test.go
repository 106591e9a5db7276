package harness

import (
	"strings"
	"testing"

	"strandweaver/internal/sweep"
)

func TestLoggingAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pts, err := LoggingAblation(ExpOptions{Threads: 2, OpsPerThread: 20}, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// The extension's claim: redo logging wins, and by more at small
	// transaction sizes.
	for _, p := range pts {
		if p.RedoSpeedup <= 1.0 {
			t.Errorf("stores/tx=%d: redo gain %.2f, want > 1", p.StoresPerTx, p.RedoSpeedup)
		}
	}
	if pts[0].RedoSpeedup < pts[1].RedoSpeedup {
		t.Errorf("redo gain should shrink with tx size: %v", pts)
	}
	var sb strings.Builder
	PrintLoggingAblation(&sb, pts)
	if !strings.Contains(sb.String(), "redo") {
		t.Error("printer output missing")
	}
}

func TestQueueDepthAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pts, err := PersistQueueDepthAblation(ExpOptions{Threads: 4, OpsPerThread: 25}, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// A deeper persist queue must not be slower.
	if pts[1].Cycles > pts[0].Cycles {
		t.Errorf("16-entry queue slower than 4-entry: %v", pts)
	}
	var sb strings.Builder
	PrintQueueDepthAblation(&sb, pts)
	if !strings.Contains(sb.String(), "persist queue") {
		t.Error("printer output missing")
	}
}

func TestHOPSBufferAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pts, err := HOPSBufferAblation(ExpOptions{Threads: 4, OpsPerThread: 25}, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Cycles > pts[0].Cycles {
		t.Errorf("larger HOPS buffer slower: %v", pts)
	}
	var sb strings.Builder
	PrintHOPSBufferAblation(&sb, pts)
	if !strings.Contains(sb.String(), "HOPS") {
		t.Error("printer output missing")
	}
}

func TestSweepPrinters(t *testing.T) {
	var sb strings.Builder
	PrintFig9(&sb, []Fig9Point{{Buffers: 4, Entries: 4, GeoSpeedup: 1.5}})
	PrintFig10(&sb, []Fig10Point{{OpsPerSFR: 8, GeoSpeedup: 1.2}})
	out := sb.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "Figure 10") {
		t.Errorf("sweep printers incomplete:\n%s", out)
	}
}

func TestFlushInstructionAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pts, err := FlushInstructionAblation(ExpOptions{Threads: 4, OpsPerThread: 25})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFlushInstructionAblation(&sb, pts)
	if !strings.Contains(sb.String(), "CLFLUSHOPT") {
		t.Error("printer output missing")
	}
	for _, p := range pts {
		if p.Penalty < 0.95 {
			t.Errorf("%s: invalidating flush FASTER (%.2f); invalidation not modelled?", p.Design, p.Penalty)
		}
	}
}

// TestAblationsHonourControllers: every ablation builds its machines at
// ExpOptions.Controllers, so at two controllers each cell's metrics
// carry two per-controller stat entries.
func TestAblationsHonourControllers(t *testing.T) {
	for _, a := range []struct {
		name string
		run  func(ExpOptions) error
	}{
		{"logging", func(o ExpOptions) error { _, err := LoggingAblation(o, []int{2}); return err }},
		{"queue-depth", func(o ExpOptions) error { _, err := PersistQueueDepthAblation(o, []int{4}); return err }},
		{"flush", func(o ExpOptions) error { _, err := FlushInstructionAblation(o); return err }},
		{"hops-buffer", func(o ExpOptions) error { _, err := HOPSBufferAblation(o, []int{8}); return err }},
	} {
		rep := sweep.NewReport(a.name)
		if err := a.run(ExpOptions{Threads: 2, OpsPerThread: 10, Controllers: 2, Parallel: 1, Metrics: rep}); err != nil {
			t.Fatalf("%s ablation: %v", a.name, err)
		}
		if len(rep.Cells) == 0 {
			t.Fatalf("%s ablation recorded no cell metrics", a.name)
		}
		for _, c := range rep.Cells {
			if len(c.Controllers) != 2 {
				t.Errorf("%s cell %s: %d per-controller stat entries, want 2", a.name, c.Key, len(c.Controllers))
			}
		}
	}
}
