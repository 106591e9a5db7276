package harness

import (
	"fmt"
	"reflect"
	"testing"

	"strandweaver/internal/crashcut"
	"strandweaver/internal/faultinject"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/pmem"
	"strandweaver/internal/sim"
)

// cutState is what a post-crash query can read of a machine at a cut:
// the persistent image, the unaccepted write stream, each controller's
// in-flight writes and statistics, the armed injector's counters and a
// crash image drawn under the per-cut seed rule.
type cutState struct {
	Now        sim.Cycle
	Persistent uint64
	PM         *pmem.TopologyState
	Armed      faultinject.Stats
	Image      uint64
}

func observeCut(sys *machine.System, armed *faultinject.Injector, plan faultinject.Plan) cutState {
	now := sys.Eng.Now()
	return cutState{
		Now:        now,
		Persistent: sys.Mem.Persistent.Fingerprint(),
		PM:         sys.PM.Snapshot(),
		Armed:      armed.Stats(),
		Image:      crashcut.CutInjector(plan, now).CrashImage(sys).Fingerprint(),
	}
}

// TestReplayMatchesColdAllDesigns is the crash-cut differential over
// all six designs, eADR included, whose persist-at-visibility words are
// log entries of their own: RunWithCrash's build, served through the
// crash-cut cache under a media-fault plan at one and two controllers,
// must equal a cold run abandoned at every cut, the drained end+1 cut
// among them.
func TestReplayMatchesColdAllDesigns(t *testing.T) {
	plan := faultinject.Plan{Seed: 5, TornPersists: true, DropProb: 0.5,
		MediaFaultProb: 0.05, MediaDelayProb: 0.1, MediaDelayCycles: 300}
	for _, d := range hwdesign.All {
		for _, ctrls := range []int{0, 2} {
			spec := Spec{Benchmark: "hashmap", Model: langmodel.TXN, Design: d,
				Threads: 2, OpsPerThread: 10, Controllers: ctrls}.withDefaults()
			t.Run(fmt.Sprintf("%s/ctrl%d", d, ctrls), func(t *testing.T) {
				buildSys := func() (*machine.System, []machine.Worker, error) {
					s, _, ws, err := build(spec)
					return s, ws, err
				}
				p, err := crashcut.NewCache().Get(crashcut.Request{
					Target: crashcut.Target{Key: "run", Build: buildSys, Limit: spec.CycleLimit}, Plan: plan,
					Cuts: func(end sim.Cycle) []sim.Cycle {
						return []sim.Cycle{end / 5, end * 2 / 5, end * 3 / 5, end * 4 / 5, end + 1}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, cut := range p.Cuts {
					sys, ws, err := buildSys()
					if err != nil {
						t.Fatal(err)
					}
					fi := faultinject.New(plan)
					fi.Arm(sys)
					sys.RunAt(cut.CP.At, sys.Abandon)
					_, _ = sys.Run(ws, spec.CycleLimit)
					cold := observeCut(sys, fi, plan)

					sys, _, err = buildSys()
					if err != nil {
						t.Fatal(err)
					}
					sys.Restore(cut.CP)
					armed := faultinject.New(plan)
					armed.Restore(cut.FI)
					if got := observeCut(sys, armed, plan); !reflect.DeepEqual(cold, got) {
						t.Errorf("cut %d (cycle %d): replayed checkpoint differs from cold\ncold: %+v\nreplayed: %+v",
							i, cut.CP.At, cold, got)
					}
				}
			})
		}
	}
}
