package litmus

import (
	"math/rand"
	"reflect"
	"testing"

	"strandweaver/internal/pmo"
	"strandweaver/internal/sim"
)

// coldCheck is the reference Check is held to: the crash-free run for
// the length and the final state, then a freshly built system per cut,
// abandoned at the cut — no checkpoint anywhere. Like Check it records
// the final state first, at the crash-free length, and each further
// state at the first cut that observes it.
func coldCheck(t *testing.T, p pmo.Program, stride uint64) *Result {
	t.Helper()
	s, err := newSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	end, err := s.Run(workers(p, &primErr{}), runLimit)
	if err != nil {
		t.Fatalf("crash-free run: %v", err)
	}
	res := &Result{TotalCycles: uint64(end), States: make(map[string]uint64)}
	res.States[observedState(s.Mem.Persistent, p).Key()] = uint64(end)
	for at := uint64(1); at <= uint64(end)+1; at += stride {
		sc, err := newSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		sc.RunAt(sim.Cycle(at), sc.Abandon)
		_, _ = sc.Run(workers(p, &primErr{}), runLimit) // error expected: stopped engine
		st := observedState(sc.Mem.Persistent, p)
		res.CrashPoints++
		if _, dup := res.States[st.Key()]; !dup {
			res.States[st.Key()] = at
		}
	}
	return res
}

// TestCheckMatchesColdReference: Check, served from crash-cut
// checkpoints, must report exactly what re-simulating every cut cold
// reports — the run length, the crash points and every observed state
// with the cycle that first showed it — for every standard program and
// the seeded random programs, at a dense and a sparse stride.
func TestCheckMatchesColdReference(t *testing.T) {
	progs := StandardPrograms()
	type named struct {
		name string
		p    pmo.Program
	}
	var cases []named
	for _, n := range StandardProgramNames() {
		cases = append(cases, named{n, progs[n]})
	}
	iters := 25
	if testing.Short() {
		iters = 5
	}
	r := rand.New(rand.NewSource(20200613))
	for i := 0; i < iters; i++ {
		cases = append(cases, named{"random", randomProgram(r)})
	}
	for _, stride := range []uint64{16, 64} {
		for i, c := range cases {
			got, err := Check(c.p, stride)
			if err != nil {
				t.Fatalf("%s (case %d, stride %d): %v", c.name, i, stride, err)
			}
			want := coldCheck(t, c.p, stride)
			if got.TotalCycles != want.TotalCycles || got.CrashPoints != want.CrashPoints ||
				!reflect.DeepEqual(got.States, want.States) {
				t.Errorf("%s (case %d, stride %d): Check differs from the cold reference\ngot:  %+v\nwant: %+v",
					c.name, i, stride, got, want)
			}
		}
	}
}
