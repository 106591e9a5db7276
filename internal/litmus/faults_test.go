package litmus

import (
	"testing"

	"strandweaver/internal/faultinject"
)

// TestLitmusTornPersistsStayAllowed cross-validates the fault model
// against the formal one: torn persists and media faults must never
// surface a model-forbidden state, because the unaccepted in-flight
// writes form an antichain of the persist order (see CheckWithFaults).
// A failure here means either an ordering bug in the hardware model or
// an unsound tearing rule in the injector.
func TestLitmusTornPersistsStayAllowed(t *testing.T) {
	plans := faultinject.Presets(7)[1:] // the torn-persist variants
	for name, p := range StandardPrograms() {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			for pi, plan := range plans {
				res, err := CheckWithFaults(p, 64, plan)
				if err != nil {
					t.Fatalf("plan %d: %v", pi, err)
				}
				if res.CrashPoints < 2 {
					t.Fatalf("plan %d: only %d crash points", pi, res.CrashPoints)
				}
			}
		})
	}
}
