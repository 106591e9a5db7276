// Command strandvet is the repo's determinism vet pass: it enforces
// the docs/DETERMINISM.md rules that keep results byte-identical
// across runs and worker counts, over the packages where those rules
// are load-bearing (internal/sim, internal/harness, internal/sweep,
// internal/litmus, internal/faultinject, internal/fuzzsched).
//
// Rules (non-test files only):
//
//   - no wall-clock reads: calls to time.Now, time.Since and
//     time.Until are flagged — measured paths (and fuzz scheduling)
//     must derive time from simulated cycles;
//   - no global RNG: calls to math/rand package-level functions
//     (rand.Intn, rand.Float64, ...) are flagged — all randomness must
//     flow from seeded, instance-local generators (constructors like
//     rand.New and rand.NewSource are fine);
//   - no map-order output: a `for range` over a map whose body prints
//     or writes directly is flagged — iteration order would leak into
//     output; iterate a sorted key slice instead;
//   - passive checkpoints: a struct type named *Checkpoint, *Snapshot
//     or *State must not carry func-typed, chan-typed or sim.Engine
//     fields — a checkpoint holding behaviour or live simulator
//     references silently acts on the wrong system after a restore
//     (docs/SNAPSHOT.md);
//   - no raw page pointers: a *[N]byte type outside internal/mem
//     whose length is the value of mem.PageBytes (4096 today), written
//     as a literal (*[4096]byte), a shift (*[1<<12]byte) or the
//     constant (*[mem.PageBytes]byte), is flagged — page storage obeys
//     the COW images' ownership protocol, and a pointer held elsewhere
//     could mutate pages that frozen checkpoints share
//     (docs/DETERMINISM.md). Pointers to other array sizes, such as
//     [mem.LineSize]byte line buffers, are fine;
//   - no direct program mutation: assigning through an index on a
//     pmo.Program-typed value (`p[t][i] = op`, `p[t] = append(...)`)
//     outside internal/pmo and internal/relax is flagged — programs
//     are rewritten only via the pmo rewrite surface
//     (Clone/WithOp/WithoutOp/WithInsert), which returns a fresh
//     program per transform so the auto-relaxation oracle always has
//     a before/after pair to validate.
//
// A finding is suppressed by a `//strandvet:ok` comment on the same
// line or the line above — the escape hatch for the documented
// exemptions (e.g. the sweep metrics side channel's wall times).
//
// Usage: strandvet [package-dir ...]; with no arguments it checks the
// default package list relative to the current directory. Exits 1 when
// any finding is reported, 2 on usage or parse errors.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs is the package list the determinism rules cover. The
// second group holds the simulator layers under the machine: mem,
// pmem and machine carry the crash-cut Snapshot/Restore seams the
// passive-checkpoint rule guards, and strand, cpu and backend (whose
// state a crash destroys, so they have no seam) stay listed for the
// other rules. The third group holds the packages that handle
// pmo.Program values, which the program-mutation rule guards (pmo and
// relax are the rule's exempt owners but stay listed so the other
// rules cover them).
var defaultDirs = []string{
	"internal/sim",
	"internal/harness",
	"internal/sweep",
	"internal/litmus",
	"internal/faultinject",
	"internal/fuzzsched",
	"internal/mem",
	"internal/pmem",
	"internal/strand",
	"internal/cpu",
	"internal/backend",
	"internal/machine",
	"internal/pmo",
	"internal/relax",
	"internal/persistcheck",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var all []string
	for _, dir := range dirs {
		ds, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "strandvet:", err)
			os.Exit(2)
		}
		all = append(all, ds...)
	}
	sort.Strings(all)
	for _, d := range all {
		fmt.Println(d)
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// checkDir checks every non-test Go file directly in dir.
func checkDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var diags []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ds, err := checkSource(path, src)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	return diags, nil
}
