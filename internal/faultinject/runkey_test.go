package faultinject

import (
	"math"
	"math/rand"
	"testing"
)

// TestRunKeyNamesRunVisible: two plans' run keys are equal exactly when
// their run-visible parts are. Plans are drawn from small pools so that
// equal and unequal parts both occur often; the float pools hold -0
// and +0 (equal), and neighbours one ulp apart (not).
func TestRunKeyNamesRunVisible(t *testing.T) {
	probs := []float64{0, math.Copysign(0, -1), -0.5, 0.02, math.Nextafter(0.02, 1), 0.05, 0.1, 1, 1.5}
	seeds := []uint64{0, 1, 2, math.MaxUint64}
	cycles := []uint64{0, 300, 400, math.MaxUint64}
	r := rand.New(rand.NewSource(1))
	plan := func() Plan {
		return Plan{
			Seed:             seeds[r.Intn(len(seeds))],
			TornPersists:     r.Intn(2) == 0,
			DropProb:         probs[r.Intn(len(probs))],
			TearAccepted:     r.Intn(2) == 0,
			MediaFaultProb:   probs[r.Intn(len(probs))],
			MediaDelayProb:   probs[r.Intn(len(probs))],
			MediaDelayCycles: cycles[r.Intn(len(cycles))],
		}
	}
	var same, differ int
	for i := 0; i < 200000; i++ {
		a, b := plan(), plan()
		eq := a.RunVisible() == b.RunVisible()
		if got := a.RunKey() == b.RunKey(); got != eq {
			t.Fatalf("RunKey equal = %t, RunVisible equal = %t\na %+v: %q\nb %+v: %q", got, eq, a, a.RunKey(), b, b.RunKey())
		}
		if eq {
			same++
		} else {
			differ++
		}
	}
	if same < 1000 || differ < 1000 {
		t.Errorf("%d equal and %d unequal pairs drawn, want both common", same, differ)
	}
}
