package main

import "strandweaver/internal/hwdesign"

// metricSpec names one reported metric. The lists here must match
// BENCHMARK.json's end_to_end and per_layer entries (bench_test.go
// holds them to it).
type metricSpec struct {
	name, unit, better string
}

// endToEndMetrics are reported by every untraced run, for every
// workload.
var endToEndMetrics = []metricSpec{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerRates maps a traced layer call to its per-layer metric: calls
// per second of the call's self time. A rate rather than a time per
// call, so that a layer a workload never calls reads 0 without posing
// as a measured time.
var layerRates = []struct{ metric, span string }{
	{"machine.new_per_s", "machine.New"},
	{"langmodel.new_per_s", "langmodel.New"},
	{"workloads.setup_per_s", "workloads.Setup"},
	{"machine.snapshot_per_s", "machine.Snapshot"},
	{"machine.restore_per_s", "machine.Restore"},
	{"faultinject.crash_image_per_s", "faultinject.CrashImage"},
	{"mem.fingerprint_per_s", "mem.Fingerprint"},
	{"mem.clone_per_s", "mem.Clone"},
	{"undolog.recover_per_s", "undolog.Recover"},
	{"workloads.verify_per_s", "workloads.Verify"},
	{"faultinject.convergence_per_s", "faultinject.CheckConvergence"},
	{"fuzzsched.execute_per_s", "fuzzsched.Execute"},
	{"persistcheck.analyze_per_s", "persistcheck.AnalyzeStream"},
	{"pmo.allowed_sets_per_s", "pmo.AllowedPersistSets"},
	{"relax.optimize_per_s", "relax.OptimizeStream"},
	{"relax.validate_per_s", "relax.Validate"},
}

// layerCounters are the per-layer metrics counted rather than timed
// per call.
var layerCounters = []metricSpec{
	{"trace.overhead_pct", "%", "lower"},
	{"sim.events_fired", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.fast_path_frac", "frac", "higher"},
	{"sim.switches_per_event", "ratio", "lower"},
	{"sim.allocs_per_event", "count", "lower"},
	{"sweep.worker_busy_frac", "frac", "higher"},
	{"mem.pages_frozen", "count", "lower"},
	{"mem.cow_faults", "count", "lower"},
	{"mem.restore_diverged", "count", "lower"},
	{"mem.checkpoint_mb", "MB", "lower"},
	{"harness.checkpoint_hit_frac", "frac", "higher"},
	{"fuzzsched.snapshot_hit_frac", "frac", "higher"},
	{"fuzzsched.snapshot_mb", "MB", "lower"},
	{"relax.steps", "count", "lower"},
	{"model.claims_err_pct", "%", "lower"},
}

// simulatedPerDesign are the grid's simulated persist-path statistics,
// reported per design as "<name>.<design>".
var simulatedPerDesign = []metricSpec{
	{"cpu.stall_fence_cycles", "cycles", "lower"},
	{"cpu.stall_queue_full_cycles", "cycles", "lower"},
	{"cpu.persist_stall_frac", "frac", "lower"},
	{"pmem.write_queue_full_events", "count", "lower"},
	{"pmem.pending_stall_cycles", "cycles", "lower"},
	{"pmem.max_write_queue_depth", "count", "lower"},
}

// perLayerMetrics lists every per-layer metric in BENCHMARK.json order.
func perLayerMetrics() []metricSpec {
	var out []metricSpec
	for _, lr := range layerRates {
		out = append(out, metricSpec{lr.metric, "1/s", "higher"})
	}
	out = append(out, layerCounters...)
	for _, m := range simulatedPerDesign {
		for _, d := range hwdesign.All {
			out = append(out, metricSpec{m.name + "." + d.String(), m.unit, m.better})
		}
	}
	return out
}
