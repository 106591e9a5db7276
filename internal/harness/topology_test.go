package harness

import (
	"encoding/json"
	"reflect"
	"testing"

	"strandweaver/internal/faultinject"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/sweep"
)

// TestSingleControllerResultBytesUnchanged is the golden-digest guard
// for the topology layer: a Spec that leaves Controllers at the zero
// value and a Spec that asks for 1 controller explicitly must both
// marshal byte-identically — PerController stays empty at one
// controller, so the pinned golden digests cover the sharded machine's
// pass-through path too.
func TestSingleControllerResultBytesUnchanged(t *testing.T) {
	base := Spec{Benchmark: "queue", Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
		Threads: 2, OpsPerThread: 20, Seed: 1}
	explicit := base
	explicit.Controllers = 1

	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	// Only the echoed Spec may differ (it records the request); every
	// measured byte must match.
	re.Spec = rb.Spec
	jb, _ := json.Marshal(rb)
	je, _ := json.Marshal(re)
	if string(jb) != string(je) {
		t.Errorf("explicit Controllers=1 changed the measured result:\n%s\nvs\n%s", jb, je)
	}
	if len(rb.PerController) != 0 {
		t.Errorf("PerController populated at a single controller: %d entries", len(rb.PerController))
	}
}

// TestMultiControllerRunDeterministicWithPerControllerStats: at sharded
// counts the run must stay deterministic, report one Stats per
// controller in index order, and the aggregate must be their sum.
func TestMultiControllerRunDeterministicWithPerControllerStats(t *testing.T) {
	for _, n := range []int{2, 4} {
		spec := Spec{Benchmark: "queue", Model: langmodel.SFR, Design: hwdesign.StrandWeaver,
			Threads: 2, OpsPerThread: 20, Seed: 1, Controllers: n}
		r1, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("controllers=%d: same-spec runs differ", n)
		}
		if len(r1.PerController) != n {
			t.Fatalf("controllers=%d: PerController has %d entries", n, len(r1.PerController))
		}
		var accepted, drained uint64
		for _, st := range r1.PerController {
			accepted += st.PMWritesAccepted
			drained += st.PMWritesDrained
		}
		if accepted != r1.Controller.PMWritesAccepted || drained != r1.Controller.PMWritesDrained {
			t.Errorf("controllers=%d: per-controller sums (%d,%d) != aggregate (%d,%d)",
				n, accepted, drained, r1.Controller.PMWritesAccepted, r1.Controller.PMWritesDrained)
		}
		if accepted == 0 {
			t.Errorf("controllers=%d: no PM writes accepted anywhere", n)
		}
	}
}

// TestGridParallelMatchesSerialMultiController extends the
// parallel-vs-serial contract to a sharded topology, including the
// per-controller cell metrics the sweep records.
func TestGridParallelMatchesSerialMultiController(t *testing.T) {
	base := ExpOptions{Benchmarks: []string{"queue"}, Threads: 2, OpsPerThread: 20,
		Seed: 7, Controllers: 2}

	serial := base
	serial.Parallel = 1
	gs, err := RunGrid(serial)
	if err != nil {
		t.Fatalf("serial grid: %v", err)
	}

	par := base
	par.Parallel = 4
	par.Metrics = sweep.NewReport("grid")
	gp, err := RunGrid(par)
	if err != nil {
		t.Fatalf("parallel grid: %v", err)
	}
	if !reflect.DeepEqual(gs.Cells, gp.Cells) {
		t.Error("parallel grid cells differ from serial at 2 controllers")
	}
	found := false
	for _, c := range par.Metrics.Cells {
		if len(c.Controllers) == 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no cell metrics carried 2 per-controller stat entries")
	}
}

// TestTortureDeterminismMultiController: the torture sweep's
// ImageDigest (every crash image's bytes) must be identical across
// runs and worker counts at a sharded controller count.
func TestTortureDeterminismMultiController(t *testing.T) {
	o := TortureOptions{Seed: 5, Benchmarks: []string{"queue"}, Crashes: 5,
		SkipLitmus: true, ConvergeEvery: 2, Controllers: 2, Parallel: 1}
	serial, err := Torture(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 4
	wide, err := Torture(o)
	if err != nil {
		t.Fatal(err)
	}
	if serial.ImageDigest != wide.ImageDigest {
		t.Errorf("parallel=4: image digest %016x differs from serial %016x", wide.ImageDigest, serial.ImageDigest)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Error("parallel=4 report differs from serial report")
	}
	if len(serial.Violations) != 0 {
		t.Errorf("violations at 2 controllers: %v", serial.Violations)
	}
}

// TestTortureControllerCountChangesDigest: the controller count shapes
// the machine, so it is part of the crash-cut run key (planRunKey) and
// sweeps at different counts never share crash-cut cache entries —
// even where their crash images coincide, as small 1- and 2-controller
// queue sweeps' do.
func TestTortureControllerCountChangesDigest(t *testing.T) {
	for _, plan := range faultinject.Presets(5) {
		seen := map[string]int{}
		for _, n := range []int{1, 2, 4} {
			k := planRunKey(TortureOptions{Controllers: n}, plan)
			if m, ok := seen[k]; ok {
				t.Errorf("%d and %d controllers share run key %q", m, n, k)
			}
			seen[k] = n
		}
	}
}

// TestTortureMultiControllerOneCut: at every controller count a power
// cut truncates the machine-wide stream of unaccepted writes at one
// point, so recovery repairs every crash image and each image tears at
// most one line. The scale and seeds are ones at which a rule cutting
// each controller's share of the stream at its own point breaks
// invariants at every seed.
func TestTortureMultiControllerOneCut(t *testing.T) {
	for _, c := range []struct {
		ctrls int
		seeds uint64
	}{{2, 5}, {4, 3}} {
		for seed := uint64(1); seed <= c.seeds; seed++ {
			rep, err := Torture(TortureOptions{Seed: seed, Threads: 4, OpsPerThread: 50, Crashes: 32,
				SkipLitmus: true, Controllers: c.ctrls, Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Errorf("%d controllers, seed %d: %d violations, first: %s",
					c.ctrls, seed, len(rep.Violations), rep.Violations[0])
			}
			if rep.TornLines > uint64(rep.TornImages) {
				t.Errorf("%d controllers, seed %d: %d torn lines over %d torn images, want at most one each",
					c.ctrls, seed, rep.TornLines, rep.TornImages)
			}
		}
	}
}
