// Package litmus executes abstract persistency litmus programs (package
// pmo) on the timing simulator, injects crashes at many points, and
// validates every observed post-crash PM state against the formal
// strand-persistency model. This is the cross-validation harness that
// ties the paper's Section III (the model) to Section IV (the
// hardware).
package litmus

import (
	"fmt"
	"sort"

	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/crashcut"
	"strandweaver/internal/faultinject"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/pmo"
	"strandweaver/internal/sim"
)

// LocAddr maps an abstract location to a PM cache line of its own.
func LocAddr(loc int) mem.Addr {
	return mem.PMBase + mem.Addr(loc)*mem.LineSize
}

// StandardPrograms returns the litmus shapes of the paper's Figure 2
// plus extra barrier/strand compositions, keyed by name. The map is
// freshly built per call; callers may mutate it.
func StandardPrograms() map[string]pmo.Program {
	const locA, locB, locC = 0, 1, 2
	return map[string]pmo.Program{
		"fig2ab-pb-ns": {{pmo.St(locA, 1), pmo.PB(), pmo.St(locB, 1), pmo.NS(), pmo.St(locC, 1)}},
		"fig2cd-join":  {{pmo.St(locA, 1), pmo.NS(), pmo.St(locB, 1), pmo.JS(), pmo.St(locC, 1)}},
		"fig2ef-spa":   {{pmo.St(locA, 1), pmo.NS(), pmo.St(locA, 2), pmo.PB(), pmo.St(locB, 1)}},
		"fig2gh-load":  {{pmo.St(locA, 1), pmo.NS(), pmo.Ld(locA), pmo.PB(), pmo.St(locB, 1)}},
		"fig2ij-interthread": {
			{pmo.St(locA, 1), pmo.NS(), pmo.St(locB, 1)},
			{pmo.St(locB, 2), pmo.PB(), pmo.St(locC, 1)},
		},
		"chained-barriers": {{pmo.St(locA, 1), pmo.PB(), pmo.St(locB, 1), pmo.PB(), pmo.St(locC, 1)}},
		"ns-clears-pb":     {{pmo.St(locA, 1), pmo.PB(), pmo.NS(), pmo.St(locB, 1), pmo.JS(), pmo.St(locC, 1)}},
		"two-strands-join": {
			{pmo.NS(), pmo.St(locA, 1), pmo.PB(), pmo.St(locB, 1), pmo.NS(), pmo.St(locC, 1), pmo.JS()},
		},
	}
}

// StandardProgramNames returns the names of StandardPrograms in sorted
// order — the canonical iteration order for deterministic reports
// (docs/DETERMINISM.md forbids ranging the map directly into output).
func StandardProgramNames() []string {
	progs := StandardPrograms()
	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// primErr records the first ordering-primitive failure across a run's
// workers. Litmus programs use the strand primitives, so a backend that
// does not implement them must surface ErrPrimitiveUnavailable to the
// caller rather than silently validating a program that never ordered
// anything.
type primErr struct{ err error }

func (r *primErr) record(err error) bool {
	if err != nil && r.err == nil {
		r.err = err
	}
	return err != nil
}

// workers translates the abstract program into simulator workers: each
// store is a Store64 + CLWB on the current strand, barriers map to the
// StrandWeaver primitives. A worker whose primitive fails stops
// immediately; the recorder carries the error back to Check.
func workers(p pmo.Program, rec *primErr) []machine.Worker {
	var ws []machine.Worker
	for _, thread := range p {
		ops := thread
		ws = append(ws, func(c *cpu.Core) {
			for _, op := range ops {
				var err error
				switch op.Kind {
				case pmo.KStore:
					c.Store64(LocAddr(op.Loc), op.Val)
					c.CLWB(LocAddr(op.Loc))
				case pmo.KLoad:
					c.Load64(LocAddr(op.Loc))
				case pmo.KPB:
					err = c.PersistBarrier()
				case pmo.KNS:
					err = c.NewStrand()
				case pmo.KJS:
					err = c.JoinStrand()
				}
				if rec.record(err) {
					return
				}
			}
			c.DrainAll()
		})
	}
	return ws
}

// newSystem builds the system for one litmus run. It returns an error
// instead of panicking: Check/CheckWithFaults are public API, and a
// program wide enough to produce an invalid configuration must surface
// as a diagnosable error, not a crash.
func newSystem(p pmo.Program) (*machine.System, error) {
	cfg := config.Default()
	if len(p) > cfg.Cores {
		cfg.Cores = len(p)
	}
	s, err := machine.New(cfg, hwdesign.StrandWeaver)
	if err != nil {
		return nil, fmt.Errorf("building system for %d-thread program: %w", len(p), err)
	}
	return s, nil
}

// observedState reads the abstract locations from the persistent image.
func observedState(img *mem.Image, p pmo.Program) pmo.State {
	st := make(pmo.State)
	seen := map[int]bool{}
	for _, th := range p {
		for _, op := range th {
			if op.Kind == pmo.KStore && !seen[op.Loc] {
				seen[op.Loc] = true
				if v := img.Read64(LocAddr(op.Loc)); v != 0 {
					st[op.Loc] = v
				}
			}
		}
	}
	return st
}

// Result summarises one cross-validation run.
type Result struct {
	// TotalCycles is the crash-free execution length.
	TotalCycles uint64
	// CrashPoints is the number of crash cycles exercised.
	CrashPoints int
	// States maps observed state keys to one example crash cycle.
	States map[string]uint64
}

// Check runs the program crash-free to find its length, then crashes
// it every stride cycles, checking each observed post-crash state
// against the formal model. It returns an error naming the first
// forbidden state observed, if any. It is CheckWithFaults under the
// zero (fault-free) plan.
func Check(p pmo.Program, stride uint64) (*Result, error) {
	return CheckWithFaults(p, stride, faultinject.Plan{})
}

// runLimit bounds each litmus run in simulated cycles.
const runLimit = 10_000_000

// CheckWithFaults is Check under a fault plan, served as one crashcut
// request. The plan's injector is armed on the run, so media faults
// and latency spikes stretch the schedule the cuts are placed on. Cuts
// fall at 1, 1+stride, … up to end+1 over the crash-free run of end
// cycles; each cut's crash image is drawn from its checkpoint by a
// fresh injector under the per-cut seed rule (crashcut.CutInjector).
// The final state is read from an extra cut at end+1, after everything
// has drained, and recorded first, at cycle end.
//
// Every cut shares the one run the plan is armed on, the rule the
// torture sweep applies to its workload cuts; only the plan's
// run-visible part (faultinject.Plan.RunVisible) shapes that run.
//
// Torn persists keep every litmus invariant intact, and this function
// asserts it: the injector's power cut truncates the FIFO submission
// stream, landing a prefix of the unaccepted writes, tearing only the
// single write mid-transfer at the cut, and dropping the rest. The
// landed prefix is exactly what a slightly later crash would have made
// durable, and each litmus location occupies one 8-byte word of its own
// line, so the boundary write partially landing is observationally
// "landed" or "not" — both states the model already allows. A forbidden
// state under fault injection is therefore a real ordering bug, not
// noise.
func CheckWithFaults(p pmo.Program, stride uint64, plan faultinject.Plan) (*Result, error) {
	if stride == 0 {
		stride = 64
	}
	allowed, err := pmo.NewBuilder(p).States()
	if err != nil {
		return nil, fmt.Errorf("litmus: %w", err)
	}
	rec := &primErr{}
	pre, err := crashcut.NewCache().Get(crashcut.Request{
		Target: crashcut.Target{
			Key:   fmt.Sprint("litmus/", p),
			Limit: runLimit,
			Build: func() (*machine.System, []machine.Worker, error) {
				s, err := newSystem(p)
				if err != nil {
					return nil, nil, err
				}
				return s, workers(p, rec), nil
			},
		},
		Plan: plan,
		Cuts: func(end sim.Cycle) []sim.Cycle {
			var cuts []sim.Cycle
			for at := sim.Cycle(1); at <= end+1; at += sim.Cycle(stride) {
				cuts = append(cuts, at)
			}
			return append(cuts, end+1)
		},
	})
	if rec.err != nil {
		return nil, fmt.Errorf("litmus: crash-free run: %w", rec.err)
	}
	if err != nil {
		return nil, fmt.Errorf("litmus: %w", err)
	}

	res := &Result{TotalCycles: uint64(pre.End), States: make(map[string]uint64)}
	cuts, final := pre.Cuts[:len(pre.Cuts)-1], pre.Cuts[len(pre.Cuts)-1]
	st := observedState(final.CP.Image, p)
	if _, ok := allowed[st.Key()]; !ok {
		return res, fmt.Errorf("litmus: final state %q not allowed by the model", st.Key())
	}
	res.States[st.Key()] = uint64(pre.End)

	for _, cut := range cuts {
		st := observedState(crashcut.CutInjector(plan, cut.CP.At).CheckpointImage(cut.CP), p)
		res.CrashPoints++
		if _, ok := allowed[st.Key()]; !ok {
			return res, fmt.Errorf("litmus: crash at cycle %d observed forbidden state %q", cut.CP.At, st.Key())
		}
		if _, dup := res.States[st.Key()]; !dup {
			res.States[st.Key()] = uint64(cut.CP.At)
		}
	}
	return res, nil
}
