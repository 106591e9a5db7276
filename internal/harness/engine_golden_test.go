package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
)

// engineGoldenPath pins the event-core counters of a few grid cells.
// Result.Engine is `json:"-"`, so the result digests in
// golden_digests.json do not cover these counters; this file does.
const engineGoldenPath = "testdata/engine_counters.json"

// engineGolden is the part of sim.Stats that is a function of the
// (cycle, seq) event order alone. The storage-dependent counters
// (fast-path and freelist hits) are left out on purpose: they describe
// how the queue holds events, not which events fire.
type engineGolden struct {
	EventsScheduled   uint64 `json:"events_scheduled"`
	EventsFired       uint64 `json:"events_fired"`
	CoroutineSwitches uint64 `json:"coroutine_switches"`
}

// engineGoldenSpecs cover every design, every language model and a
// contended eight-thread cell.
var engineGoldenSpecs = []Spec{
	{Benchmark: "queue", Model: langmodel.SFR, Design: hwdesign.StrandWeaver, Threads: 2, OpsPerThread: 20},
	{Benchmark: "hashmap", Model: langmodel.TXN, Design: hwdesign.IntelX86, Threads: 2, OpsPerThread: 20},
	{Benchmark: "arrayswap", Model: langmodel.ATLAS, Design: hwdesign.HOPS, Threads: 2, OpsPerThread: 20},
	{Benchmark: "rbtree", Model: langmodel.SFR, Design: hwdesign.NoPersistQueue, Threads: 2, OpsPerThread: 20},
	{Benchmark: "tpcc", Model: langmodel.TXN, Design: hwdesign.NonAtomic, Threads: 2, OpsPerThread: 10},
	{Benchmark: "nstore-wr", Model: langmodel.ATLAS, Design: hwdesign.EADR, Threads: 2, OpsPerThread: 20},
	{Benchmark: "queue", Model: langmodel.SFR, Design: hwdesign.StrandWeaver, Threads: 8, OpsPerThread: 40},
}

// TestEngineCountersGolden guards the event core: a change to how events
// are stored must schedule, fire and switch exactly as before.
// Regenerate with: go test ./internal/harness -run TestEngineCountersGolden -update
func TestEngineCountersGolden(t *testing.T) {
	got := map[string]engineGolden{}
	for _, spec := range engineGoldenSpecs {
		key := fmt.Sprintf("%s/%dx%d", specKey(spec), spec.Threads, spec.OpsPerThread)
		r, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = engineGolden{
			EventsScheduled:   r.Engine.EventsScheduled,
			EventsFired:       r.Engine.EventsFired,
			CoroutineSwitches: r.Engine.CoroutineSwitches,
		}
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", engineGoldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatalf("read engine goldens (regenerate with -update): %v", err)
	}
	var want map[string]engineGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse engine goldens: %v", err)
	}
	compareGoldenSection(t, "engine", want, got)
}
