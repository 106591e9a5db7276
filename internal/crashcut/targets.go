package crashcut

import (
	"fmt"

	"strandweaver/internal/config"
	"strandweaver/internal/cpu"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/redolog"
	"strandweaver/internal/undolog"
	"strandweaver/internal/workloads"
)

// Target is one crash-cut subject on a StrandWeaver machine.
type Target struct {
	// Build returns a freshly constructed, un-run system and its workers.
	Build func() (*machine.System, []machine.Worker, error)
	// Recover runs the target's recovery engine over a crash image in
	// place.
	Recover func(img *mem.Image) (Recovery, error)
	// Verify checks the target's invariants on a recovered image.
	Verify func(img *mem.Image) error
	// StateSig folds a recovered image's state into a small coverage
	// signature (always 0 for the data-structure workloads).
	StateSig func(img *mem.Image) uint8
}

// Recovery is the recovery-pass counter slice both log engines report.
type Recovery struct {
	// Scrubbed counts torn log entries discarded by checksum scrubbing;
	// Actions the mutations rolled back (undo) or transactions replayed
	// (redo).
	Scrubbed int
	Actions  int
	// Commits counts commits finished (undo) or committed transactions
	// (redo); Invalidated the entries invalidated (undo) or
	// transactions discarded (redo).
	Commits     int
	Invalidated int
}

// newMachine builds a StrandWeaver machine with the given core and PM
// controller counts (0 controllers = the configuration default).
func newMachine(cores, controllers int) (*machine.System, error) {
	cfg := config.Default()
	cfg.Cores = cores
	if controllers != 0 {
		cfg.PMControllers = controllers
	}
	return machine.New(cfg, hwdesign.StrandWeaver)
}

func undoRecover(threads int) func(img *mem.Image) (Recovery, error) {
	return func(img *mem.Image) (Recovery, error) {
		rep, err := undolog.Recover(img, threads)
		if err != nil {
			return Recovery{}, err
		}
		return Recovery{
			Scrubbed:    rep.TornDiscarded,
			Actions:     len(rep.RolledBack),
			Commits:     rep.CommitsFinished,
			Invalidated: rep.EntriesInvalidated,
		}, nil
	}
}

func redoRecover(img *mem.Image) (Recovery, error) {
	rep, err := redolog.Recover(img, 1)
	if err != nil {
		return Recovery{}, err
	}
	return Recovery{
		Scrubbed:    rep.TornDiscarded,
		Actions:     len(rep.Replayed),
		Commits:     rep.CommittedTxs,
		Invalidated: rep.DiscardedTxs,
	}, nil
}

// genCells is the direct targets' geometry: per-thread groups of
// cellsPerThread generation cells whose invariant is all-or-nothing —
// after recovery, each thread's cells must all carry one generation in
// [0, gens]. val is cell i's content for thread t at generation g.
type genCells struct {
	threads, gens int
	val           func(t, g, i int) uint64
}

const cellsPerThread = 4

func (c genCells) addr(t, i int) mem.Addr {
	return mem.PMBase + undolog.HeapOffset + mem.Addr(t*cellsPerThread+i)*mem.LineSize
}

// seed writes generation-0 contents host-side (both images) and warms
// the lines.
func (c genCells) seed(sys *machine.System) {
	for t := 0; t < c.threads; t++ {
		for i := 0; i < cellsPerThread; i++ {
			a := c.addr(t, i)
			sys.Mem.Volatile.Write64(a, c.val(t, 0, i))
			sys.Mem.Persistent.Write64(a, c.val(t, 0, i))
			sys.Hier.Preload(mem.LineAddr(a))
		}
	}
}

func (c genCells) verify(img *mem.Image) error {
	for t := 0; t < c.threads; t++ {
		found := false
		for g := 0; g <= c.gens && !found; g++ {
			ok := true
			for i := 0; i < cellsPerThread; i++ {
				if img.Read64(c.addr(t, i)) != c.val(t, g, i) {
					ok = false
					break
				}
			}
			found = ok
		}
		if !found {
			vals := make([]uint64, cellsPerThread)
			for i := range vals {
				vals[i] = img.Read64(c.addr(t, i))
			}
			return fmt.Errorf("thread %d cells torn across generations: %v", t, vals)
		}
	}
	return nil
}

// sig folds the image's generation structure into a 4-bit signature:
// how many distinct generations appear across cells (capped at 7) and
// whether any cell held an unrecognisable value.
func (c genCells) sig(img *mem.Image) uint8 {
	gens := map[int]bool{}
	unknown := false
	for t := 0; t < c.threads; t++ {
		for i := 0; i < cellsPerThread; i++ {
			v := img.Read64(c.addr(t, i))
			matched := false
			for g := 0; g <= c.gens; g++ {
				if v == c.val(t, g, i) {
					gens[g] = true
					matched = true
					break
				}
			}
			if !matched {
				unknown = true
			}
		}
	}
	n := len(gens)
	if n > 7 {
		n = 7
	}
	sig := uint8(n)
	if unknown {
		sig |= 1 << 3
	}
	return sig
}

func directVal(t, g, i int) uint64 { return uint64(g)*1000 + uint64(t)*100 + uint64(i) + 1 }

// DirectUndolog is the direct undo-log generation workload, on a
// machine with one core per thread or the configuration's default core
// count, whichever is larger. Each thread drives its own cell group
// through ops generations of undo-logged stores with a commit per
// generation; with mutant set the data CLWB is deleted (the seeded
// Figure 5 mutant a search must convict).
func DirectUndolog(threads, ops int, mutant bool, controllers int) Target {
	cells := genCells{threads: threads, gens: ops, val: directVal}
	return Target{
		Build: func() (*machine.System, []machine.Worker, error) {
			sys, err := newMachine(max(threads, config.Default().Cores), controllers)
			if err != nil {
				return nil, nil, err
			}
			cells.seed(sys)
			logs := undolog.Init(sys, threads, 64)
			ws := make([]machine.Worker, threads)
			for t := 0; t < threads; t++ {
				l := logs.PerThread[t]
				ws[t] = func(c *cpu.Core) {
					for gen := 1; gen <= ops; gen++ {
						for i := 0; i < cellsPerThread; i++ {
							addr, val := cells.addr(t, i), cells.val(t, gen, i)
							if mutant {
								// LoggedStore with the data flush deleted.
								undolog.BeginPair(c)
								old := c.Load64(addr)
								l.AppendStore(c, addr, old)
								undolog.LogToUpdate(c)
								c.Store64(addr, val)
							} else {
								l.LoggedStore(c, addr, val)
							}
						}
						l.CommitUpTo(c, l.Tail())
					}
					c.DrainAll()
				}
			}
			return sys, ws, nil
		},
		Recover:  undoRecover(threads),
		Verify:   cells.verify,
		StateSig: cells.sig,
	}
}

// DirectRedolog is the direct redo-log generation workload
// (single-threaded by construction): one transaction per generation
// over one cell group, with a group commit halfway.
func DirectRedolog(ops, controllers int) Target {
	return redoTarget(genCells{threads: 1, gens: ops, val: directVal}, controllers)
}

// RedoRecord is the torture sweep's redo-log subject: one thread
// advances a 4-cell record through 4 generations, each one redo
// transaction, with a group commit halfway.
func RedoRecord(controllers int) Target {
	return redoTarget(genCells{threads: 1, gens: 4, val: func(_, g, i int) uint64 {
		return uint64(g)*100 + uint64(i) + 1
	}}, controllers)
}

func redoTarget(cells genCells, controllers int) Target {
	return Target{
		Build: func() (*machine.System, []machine.Worker, error) {
			sys, err := newMachine(1, controllers)
			if err != nil {
				return nil, nil, err
			}
			cells.seed(sys)
			l := redolog.Init(sys, 1, 64).PerThread[0]
			w := func(c *cpu.Core) {
				for gen := 1; gen <= cells.gens; gen++ {
					tx := l.Begin(c)
					for i := 0; i < cellsPerThread; i++ {
						tx.Store(cells.addr(0, i), cells.val(0, gen, i))
					}
					tx.Commit()
					if cells.gens >= 2 && gen == cells.gens/2 {
						l.GroupCommit(c)
					}
				}
				c.DrainAll()
			}
			return sys, []machine.Worker{w}, nil
		},
		Recover:  redoRecover,
		Verify:   cells.verify,
		StateSig: cells.sig,
	}
}

// Workload runs a Table II persistent data structure through the TXN
// language runtime on a machine with one core per thread, recovered by
// the undo log. Verify checks against the instance of the most recent
// Build (every build lays the structure out identically), building once
// itself when the target has never been built — as when a cache served
// every cut from another target's runs. A Target used concurrently from
// several goroutines must not be shared.
func Workload(bench string, threads, ops int, seed int64, controllers int) (Target, error) {
	f, err := workloads.Find(bench)
	if err != nil {
		return Target{}, err
	}
	var inst workloads.Instance
	build := func() (*machine.System, []machine.Worker, error) {
		sys, err := newMachine(threads, controllers)
		if err != nil {
			return nil, nil, err
		}
		rt := langmodel.New(sys, langmodel.TXN, threads, langmodel.DefaultOptions())
		inst = f.New(workloads.Params{Threads: threads, OpsPerThread: ops, Seed: seed})
		inst.Setup(sys, rt)
		ws := make([]machine.Worker, threads)
		for i := range ws {
			ws[i] = inst.Worker(i)
		}
		return sys, ws, nil
	}
	return Target{
		Build:   build,
		Recover: undoRecover(threads),
		Verify: func(img *mem.Image) error {
			if inst == nil {
				if _, _, err := build(); err != nil {
					return err
				}
			}
			return inst.Verify(img)
		},
		StateSig: func(*mem.Image) uint8 { return 0 },
	}, nil
}
