package workloads

import (
	"fmt"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/machine"
	"strandweaver/internal/mem"
	"strandweaver/internal/sim"
	"strandweaver/internal/undolog"
)

func buildRun(t *testing.T, name string, d hwdesign.Design, m langmodel.Model, threads, ops int) (*machine.System, Instance, []machine.Worker) {
	t.Helper()
	cfg := config.Default()
	cfg.Cores = threads
	sys := machine.MustNew(cfg, d)
	f, err := Find(name)
	if err != nil {
		t.Fatal(err)
	}
	inst := f.New(Params{Threads: threads, OpsPerThread: ops, Seed: 7})
	opts := langmodel.Options{LogEntries: 2048, CommitBatch: 4, RegionReserve: 128}
	return sys, inst, Prepare(sys, inst, m, opts, threads)
}

// TestAllWorkloadsCrashFree: every benchmark runs to completion on the
// StrandWeaver design under every language model, and its verifier
// passes on the final persistent image after recovery (which must be a
// no-op).
func TestAllWorkloadsCrashFree(t *testing.T) {
	for _, f := range Registry {
		for _, m := range langmodel.All {
			f, m := f, m
			t.Run(fmt.Sprintf("%s/%s", f.Name, m), func(t *testing.T) {
				sys, inst, ws := buildRun(t, f.Name, hwdesign.StrandWeaver, m, 4, 12)
				if _, err := sys.Run(ws, 500_000_000); err != nil {
					t.Fatal(err)
				}
				img := sys.Mem.CrashImage()
				rep, err := undolog.Recover(img, 4)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.RolledBack) != 0 {
					t.Errorf("crash-free run left %d uncommitted mutations", len(rep.RolledBack))
				}
				if err := inst.Verify(img); err != nil {
					t.Errorf("verification failed: %v", err)
				}
				// The volatile image must also verify (internal
				// consistency of the workload itself).
				if err := inst.Verify(sys.Mem.Volatile); err != nil {
					t.Errorf("volatile verification failed: %v", err)
				}
			})
		}
	}
}

// TestAllWorkloadsCrashSweep injects crashes at several points in every
// benchmark and verifies invariants after recovery.
func TestAllWorkloadsCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow")
	}
	crashes := 6
	for _, f := range Registry {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			sysFree, _, wsFree := buildRun(t, f.Name, hwdesign.StrandWeaver, langmodel.SFR, 4, 10)
			end, err := sysFree.Run(wsFree, 500_000_000)
			if err != nil {
				t.Fatal(err)
			}
			stride := end / sim.Cycle(crashes+1)
			if stride == 0 {
				stride = 1
			}
			for i := 1; i <= crashes; i++ {
				at := stride * sim.Cycle(i)
				sys, inst, ws := buildRun(t, f.Name, hwdesign.StrandWeaver, langmodel.SFR, 4, 10)
				sys.RunAt(at, sys.Abandon)
				_, _ = sys.Run(ws, 500_000_000)
				img := sys.Mem.CrashImage()
				if _, err := undolog.Recover(img, 4); err != nil {
					t.Fatalf("crash at %d: %v", at, err)
				}
				if err := inst.Verify(img); err != nil {
					t.Fatalf("crash at %d: %v", at, err)
				}
			}
		})
	}
}

// TestBatchedSwapRegionSizes: the Figure 10 workload respects its
// region-size parameter and stays verifiable.
func TestBatchedSwapRegionSizes(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		n := n
		t.Run(fmt.Sprintf("ops=%d", n), func(t *testing.T) {
			cfg := config.Default()
			cfg.Cores = 4
			sys := machine.MustNew(cfg, hwdesign.StrandWeaver)
			inst := NewBatchedSwap(Params{Threads: 4, OpsPerThread: 16, Seed: 3}, n)
			ws := Prepare(sys, inst, langmodel.SFR, langmodel.DefaultOptions(), 4)
			if _, err := sys.Run(ws, 500_000_000); err != nil {
				t.Fatal(err)
			}
			img := sys.Mem.CrashImage()
			if _, err := undolog.Recover(img, 4); err != nil {
				t.Fatal(err)
			}
			if err := inst.Verify(img); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRegistryIntegrity checks names, descriptions and lookup.
func TestRegistryIntegrity(t *testing.T) {
	if len(Registry) != 8 {
		t.Errorf("registry has %d entries, want the 8 of Table II", len(Registry))
	}
	seen := map[string]bool{}
	for _, f := range Registry {
		if seen[f.Name] {
			t.Errorf("duplicate benchmark %q", f.Name)
		}
		seen[f.Name] = true
		if f.Description == "" {
			t.Errorf("%s has no description", f.Name)
		}
		got, err := Find(f.Name)
		if err != nil || got.Name != f.Name {
			t.Errorf("Find(%q) failed", f.Name)
		}
		inst := f.New(Params{Threads: 1, OpsPerThread: 1, Seed: 1})
		if inst.Name() != f.Name {
			t.Errorf("instance name %q != registry name %q", inst.Name(), f.Name)
		}
	}
	if _, err := Find("no-such-benchmark"); err == nil {
		t.Error("Find accepted an unknown name")
	}
}

// TestWorkloadDeterminism: identical seeds give identical cycle counts.
func TestWorkloadDeterminism(t *testing.T) {
	run := func() sim.Cycle {
		sys, _, ws := buildRun(t, "hashmap", hwdesign.StrandWeaver, langmodel.SFR, 4, 10)
		end, err := sys.Run(ws, 500_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d cycles", a, b)
	}
}

// TestTPCCVerifierCatchesCorruption: the verifier must actually detect a
// torn order (guard against vacuous verification).
func TestTPCCVerifierCatchesCorruption(t *testing.T) {
	sys, inst, ws := buildRun(t, "tpcc", hwdesign.StrandWeaver, langmodel.TXN, 2, 4)
	if _, err := sys.Run(ws, 500_000_000); err != nil {
		t.Fatal(err)
	}
	img := sys.Mem.CrashImage()
	w := inst.(*tpccWL)
	// Corrupt: bump a district's order count past the inserted orders.
	img.Write64(w.district(0), img.Read64(w.district(0))+1)
	if err := inst.Verify(img); err == nil {
		t.Error("verifier accepted a corrupted image")
	}
}

// TestQueueVerifierCatchesCorruption likewise for the queue checksum.
func TestQueueVerifierCatchesCorruption(t *testing.T) {
	sys, inst, ws := buildRun(t, "queue", hwdesign.StrandWeaver, langmodel.TXN, 2, 4)
	if _, err := sys.Run(ws, 500_000_000); err != nil {
		t.Fatal(err)
	}
	img := sys.Mem.CrashImage()
	w := inst.(*queueWL)
	head := img.Read64(w.q.Header() + 8)
	slot := w.slotsBase + mem.Addr((head%8192)*8)
	img.Write64(slot, img.Read64(slot)+12345)
	if err := inst.Verify(img); err == nil {
		t.Error("verifier accepted a corrupted queue")
	}
}
