package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/mem"
	"strandweaver/internal/sweep"
)

// The engine counters must reach the -metrics-out side channel: every
// measured cell folds its run's sim.Stats into CellMetrics.Engine, and
// the counters must be non-trivial (a real run schedules events, takes
// the timing wheel, and context-switches its workers).
func TestEngineCountersReachCellMetrics(t *testing.T) {
	rep := sweep.NewReport("test")
	o := ExpOptions{Benchmarks: []string{"arrayswap"}, Designs: []hwdesign.Design{hwdesign.StrandWeaver},
		Threads: 2, OpsPerThread: 10, Metrics: rep}
	if _, err := Table2(o); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) == 0 {
		t.Fatal("no cell metrics collected")
	}
	for _, cell := range rep.Cells {
		eng := cell.Engine
		if eng == nil {
			t.Fatalf("cell %s has no engine counters", cell.Key)
		}
		if eng.EventsScheduled == 0 || eng.EventsFired == 0 {
			t.Errorf("cell %s: no events counted: %+v", cell.Key, eng)
		}
		if eng.EventsFired > eng.EventsScheduled {
			t.Errorf("cell %s: fired %d > scheduled %d", cell.Key, eng.EventsFired, eng.EventsScheduled)
		}
		if eng.FastPathHits == 0 {
			t.Errorf("cell %s: timing wheel never taken", cell.Key)
		}
		if eng.CoroutineSwitches == 0 {
			t.Errorf("cell %s: no coroutine switches counted", cell.Key)
		}
		if eng.PeakHeapDepth <= 0 {
			t.Errorf("cell %s: peak heap depth %d", cell.Key, eng.PeakHeapDepth)
		}
		// Grid cells never capture, clone or restore memory images, so
		// the COW counters must stay absent (omitempty keeps the JSON
		// shape of pre-COW metrics reports).
		if cell.COW != nil {
			t.Errorf("cell %s: grid cell grew COW counters: %+v", cell.Key, cell.COW)
		}
	}
	// The counters must survive into the JSON report under "engine".
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cells []struct {
			Engine *struct {
				EventsScheduled   uint64 `json:"events_scheduled"`
				CoroutineSwitches uint64 `json:"coroutine_switches"`
			} `json:"engine"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Cells) == 0 || decoded.Cells[0].Engine == nil {
		t.Fatal("engine counters missing from JSON report")
	}
	if decoded.Cells[0].Engine.EventsScheduled != rep.Cells[0].Engine.EventsScheduled {
		t.Error("events_scheduled did not round-trip through JSON")
	}
}

// Engine counters are deterministic: two identical runs must count the
// same events, switches and heap depths (the parallel sweep's
// parallel==serial result equality depends on this).
func TestEngineCountersDeterministic(t *testing.T) {
	spec := Spec{Benchmark: "hashmap", Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
		Threads: 4, OpsPerThread: 20}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Engine, b.Engine) {
		t.Errorf("engine counters differ across identical runs:\n%+v\n%+v", a.Engine, b.Engine)
	}
}

// The Engine field must stay out of the marshalled Result: the golden
// digests are sha256 over json.Marshal(Result) and must not move when
// engine internals change what they count.
func TestEngineCountersExcludedFromResultJSON(t *testing.T) {
	r, err := Run(Spec{Benchmark: "arrayswap", Model: langmodel.SFR, Design: hwdesign.EADR,
		Threads: 1, OpsPerThread: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine.EventsScheduled == 0 {
		t.Fatal("engine counters not populated on Result")
	}
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte("events_scheduled")) || bytes.Contains(blob, []byte("Engine")) {
		t.Error("engine counters leaked into the Result JSON (would change golden digests)")
	}
}

// The checkpoint counters must reach the -metrics-out side channel: a
// serial torture sweep's cells record whether they reused a shared
// prefix and how many crash cuts were served by checkpoint restores,
// and the counters must survive into JSON under their pinned keys.
func TestCheckpointCountersReachCellMetrics(t *testing.T) {
	rep := sweep.NewReport("test")
	o := TortureOptions{Seed: 2, Benchmarks: []string{"queue"}, Crashes: 4,
		SkipLitmus: true, ConvergeEvery: 1000, Parallel: 1, Metrics: rep}
	if _, err := Torture(o); err != nil {
		t.Fatal(err)
	}
	var hits, misses uint64
	reused := false
	var cow mem.Stats
	cowBuilder := false
	for _, cell := range rep.Cells {
		hits += cell.CheckpointHits
		misses += cell.CheckpointMisses
		reused = reused || cell.PrefixReused
		if cell.COW != nil {
			cow.Add(*cell.COW)
			cowBuilder = cowBuilder || cell.COW.CheckpointBytes > 0
		}
	}
	if hits == 0 {
		t.Error("no cell served a crash cut from a checkpoint")
	}
	if misses == 0 {
		t.Error("no cell recorded capturing a prefix")
	}
	if !reused {
		t.Error("no cell reused a prefix built by another cell (media-free plans share one)")
	}
	// The COW checkpoint counters must reach the same side channel: the
	// capture run freezes pages, the warm restores count diverged pages,
	// and the building cell reports the prefix's retained unique bytes.
	if cow.PagesFrozen == 0 {
		t.Error("no cell counted pages frozen by checkpoint captures")
	}
	if cow.RestoreDiverged == 0 {
		t.Error("no cell counted pages diverged across checkpoint restores")
	}
	if !cowBuilder {
		t.Error("no cell reported the prefix's retained checkpoint bytes")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"prefix_reused", "checkpoint_hits", "checkpoint_misses",
		"cow", "pages_frozen", "restore_diverged", "checkpoint_bytes"} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Errorf("%q missing from the JSON metrics report", key)
		}
	}
}
