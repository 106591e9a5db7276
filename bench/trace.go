package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// recorder keeps spans in memory for one traced pipeline run. The
// benchmark opens a span around each call it makes into a layer of the
// program; spans inside the program are not recorded. A nil *recorder
// records nothing, so one pipeline serves the traced and untraced run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one layer call. Parent is the enclosing span's id (0 for a
// top-level span); lane is the worker the call ran on, so spans of one
// lane nest and never overlap.
type span struct {
	name        string
	id, parent  int
	lane        int
	start, stop time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 when r is nil).
func (r *recorder) start(name string, parent, lane int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, id: len(r.spans) + 1, parent: parent, lane: lane, start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].stop = now
	r.mu.Unlock()
}

// call runs fn inside a span.
func (r *recorder) call(name string, parent, lane int, fn func()) {
	id := r.start(name, parent, lane)
	fn()
	r.end(id)
}

// layerRow aggregates one span name: calls, total time, and self time
// (span time minus the time its child spans cover).
type layerRow struct {
	name        string
	calls       int
	total, self time.Duration
}

// layerTable folds the spans by name. Children of a span run on its
// lane, one after another, so the time they cover is the sum of their
// durations.
func layerTable(spans []span) []layerRow {
	child := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.stop - s.start
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		row := rows[s.name]
		if row == nil {
			row = &layerRow{name: s.name}
			rows[s.name] = row
		}
		row.calls++
		row.total += s.stop - s.start
		row.self += s.stop - s.start - child[s.id]
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeLayerTable renders the table against the traced capacity (wall
// time x lanes); the idle row is capacity no top-level span covered.
func writeLayerTable(w io.Writer, rows []layerRow, wall time.Duration, lanes int) {
	capacity := wall * time.Duration(lanes)
	var self time.Duration
	fmt.Fprintf(w, "%-30s %8s %12s %12s %7s\n", "layer call", "calls", "total ms", "self ms", "share")
	for _, r := range rows {
		self += r.self
		fmt.Fprintf(w, "%-30s %8d %12.3f %12.3f %6.2f%%\n", r.name, r.calls,
			ms(r.total), ms(r.self), 100*float64(r.self)/float64(capacity))
	}
	idle := capacity - self
	fmt.Fprintf(w, "%-30s %8s %12s %12.3f %6.2f%%\n", "(idle)", "", "", ms(idle), 100*float64(idle)/float64(capacity))
	fmt.Fprintf(w, "self times sum to %.2f%% of the traced wall time (%.3f s x %d lanes)\n",
		100*float64(self)/float64(capacity), wall.Seconds(), lanes)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev and chrome://tracing open directly.
func writeChromeTrace(path string, spans []span) error {
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.name, Cat: strings.SplitN(s.name, ".", 2)[0], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.stop-s.start) / 1e3,
			Pid: 1, Tid: s.lane + 1,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceRun prepares the workload, runs its layer pipeline untraced and
// then traced, writes the trace and layer table, and reports the
// per-layer metrics. Outputs of the preparation pass, when there is
// one, are checked and counted too.
func traceRun(w *workload, sc scale, seed int64, dir string) (*runResult, error) {
	pipeline, base, err := w.layers(sc, seed)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	plain, err := pipeline(nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	rec := newRecorder()
	traced, err := pipeline(rec)
	if err != nil {
		return nil, err
	}

	lanes := 1
	for _, s := range rec.spans {
		if s.lane+1 > lanes {
			lanes = s.lane + 1
		}
	}
	rows := layerTable(rec.spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(dir, w.name+".trace.json")
	if err := writeChromeTrace(tracePath, rec.spans); err != nil {
		return nil, err
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%s: traced pipeline, seed %d, %d spans\n", w.name, seed, len(rec.spans))
	writeLayerTable(&table, rows, traced.wall, lanes)
	overhead := 100 * (traced.wall.Seconds()/plain.wall.Seconds() - 1)
	fmt.Fprintf(&table, "tracing overhead: %.2f%% (traced %.3f s vs untraced %.3f s)\n",
		overhead, traced.wall.Seconds(), plain.wall.Seconds())
	if err := os.WriteFile(filepath.Join(dir, w.name+".layers.txt"), []byte(table.String()), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprint(os.Stderr, table.String())
	fmt.Fprintf(os.Stderr, "%s: trace written to %s\n", w.name, tracePath)

	passes := []*passResult{plain, traced}
	if base != nil {
		passes = append(passes, base)
	}
	values := map[string]float64{"trace.overhead_pct": overhead}
	for _, p := range passes {
		for k, v := range p.counters {
			values[k] = v
		}
	}
	selfOf := map[string]time.Duration{}
	for _, r := range rows {
		selfOf[r.name] = r.self
		for _, lr := range layerRates {
			if lr.span == r.name && r.self > 0 {
				values[lr.metric] = float64(r.calls) / r.self.Seconds()
			}
		}
	}
	if e := traced.engine.Engine; e != nil && e.EventsFired > 0 {
		ev := e.EventsFired
		values["sim.events_fired"] = float64(ev)
		values["sim.fast_path_frac"] = float64(e.FastPathHits) / float64(e.EventsScheduled)
		values["sim.switches_per_event"] = float64(e.CoroutineSwitches) / float64(ev)
		values["sim.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / float64(plain.engine.Engine.EventsFired)
		if run := selfOf["machine.Run"]; run > 0 {
			values["sim.events_per_s"] = float64(ev) / run.Seconds()
		}
	}

	res := &runResult{Metrics: map[string]metric{}}
	for _, m := range perLayerMetrics() {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += len(p.failures)
		for _, f := range p.failures {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", w.name, f)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
