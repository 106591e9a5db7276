package machine

import (
	"reflect"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/sim"
)

// multiConfig is smallConfig sharded across n PM controllers.
func multiConfig(n int) config.Config {
	cfg := smallConfig()
	cfg.PMControllers = n
	return cfg
}

// coldAtCfg / captureAtCfg are the cfg-parameterized twins of coldAt /
// captureAt for topologies other than the default single controller.
func coldAtCfg(cfg config.Config, d hwdesign.Design, cut sim.Cycle) *System {
	s := MustNew(cfg, d)
	s.RunAt(cut, s.Abandon)
	_, _ = s.Run(snapWorkload(d, 30), 10_000_000)
	return s
}

func captureAtCfg(t *testing.T, cfg config.Config, d hwdesign.Design, cut sim.Cycle) *Checkpoint {
	t.Helper()
	s := MustNew(cfg, d)
	var cp *Checkpoint
	s.RunAt(cut, func() { cp = s.Snapshot() })
	s.RunAt(cut, s.Abandon)
	_, _ = s.Run(snapWorkload(d, 30), 10_000_000)
	if cp == nil {
		t.Fatalf("%s: run ended before cut %d", d, cut)
	}
	return cp
}

// TestTopologyWiring: System.PM reflects the configured controller
// count and the checkpoint carries one ControllerState per controller.
func TestTopologyWiring(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		s := MustNew(multiConfig(n), hwdesign.StrandWeaver)
		if got := s.PM.NumControllers(); got != n {
			t.Errorf("PMControllers=%d: NumControllers() = %d", n, got)
		}
		if got := len(s.Snapshot().PM.Ctrls); got != n {
			t.Errorf("PMControllers=%d: checkpoint has %d controller states", n, got)
		}
	}
}

// TestSnapshotColdVsRestoredMultiController is the cold-vs-restored
// differential (the docs/SNAPSHOT.md contract) at sharded controller
// counts: the restored machine must be indistinguishable from a cold
// run at the same cut, including every per-controller state.
func TestSnapshotColdVsRestoredMultiController(t *testing.T) {
	for _, n := range []int{2, 4} {
		cfg := multiConfig(n)
		for _, d := range hwdesign.All {
			d := d
			t.Run(d.String(), func(t *testing.T) {
				for _, cut := range []sim.Cycle{500, 5_000, 20_000} {
					cold := observe(coldAtCfg(cfg, d, cut))
					cp := captureAtCfg(t, cfg, d, cut)
					warm := MustNew(cfg, d)
					warm.Restore(cp)
					if got := observe(warm); !reflect.DeepEqual(cold, got) {
						t.Errorf("%d controllers, cut %d: restored state differs from cold run",
							n, cut)
					}
				}
			})
		}
	}
}

// TestRestoreRejectsControllerCountMismatch: a checkpoint from an
// n-controller machine must not silently restore into a machine with a
// different topology.
func TestRestoreRejectsControllerCountMismatch(t *testing.T) {
	d := hwdesign.StrandWeaver
	cp := captureAtCfg(t, multiConfig(2), d, 1_000)
	s := MustNew(multiConfig(4), d)
	defer func() {
		if recover() == nil {
			t.Error("restoring a 2-controller checkpoint into a 4-controller machine did not panic")
		}
	}()
	s.Restore(cp)
}

// TestTopologyDeterministicReplay: two identical multi-controller runs
// land in byte-identical machine state (the determinism contract must
// survive sharding the persistence boundary).
func TestTopologyDeterministicReplay(t *testing.T) {
	for _, n := range []int{2, 4} {
		cfg := multiConfig(n)
		for _, d := range hwdesign.All {
			a := observe(coldAtCfg(cfg, d, 7_500))
			b := observe(coldAtCfg(cfg, d, 7_500))
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s at %d controllers: identical runs diverged", d, n)
			}
		}
	}
}
