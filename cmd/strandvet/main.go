// Command strandvet is the repo's determinism vet pass: it enforces
// the docs/DETERMINISM.md rules that keep results byte-identical
// across runs and worker counts, over every package under internal/
// and cmd/. It type-checks each package from source (go/types, the
// standard library through the source importer), so every rule reads
// what a name resolves to and what type an expression has, whatever
// the spelling, import name or declaration it came through.
//
// Rules (non-test files only):
//
//   - no wall-clock reads: any use of time.Now, time.Since or
//     time.Until, called or taken as a function value, is flagged —
//     measured paths (and fuzz scheduling) must derive time from
//     simulated cycles;
//   - no global RNG: any use of a math/rand package-level function
//     (rand.Intn, rand.Float64, ...) is flagged — all randomness must
//     flow from seeded, instance-local generators (constructors like
//     rand.New and rand.NewSource are fine);
//   - no map-order output: a `for range` over a map-typed expression
//     whose body prints or writes directly is flagged — iteration
//     order would leak into output; iterate a sorted key slice
//     instead;
//   - passive checkpoints: a struct type named *Checkpoint, *Snapshot
//     or *State must not carry fields whose type holds a function, a
//     channel or a sim.Engine — a checkpoint holding behaviour or live
//     simulator references silently acts on the wrong system after a
//     restore (docs/SNAPSHOT.md);
//   - no raw page pointers: a pointer type to a byte array of length
//     mem.PageBytes (4096 today) outside internal/mem is flagged,
//     however the length is written — page storage obeys the COW
//     images' ownership protocol, and a pointer held elsewhere could
//     mutate pages that frozen checkpoints share (docs/DETERMINISM.md).
//     Pointers to other array sizes, such as [mem.LineSize]byte line
//     buffers, are fine;
//   - no direct program mutation: assigning through an index on a
//     pmo.Program value (`p[t][i] = op`, `p[t] = append(...)`)
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
// Usage, from the module root: strandvet [package-dir ...]; with no
// arguments it checks every directory under internal/ and cmd/ that
// holds a package. Exits 1 when any finding is reported, 2 on usage,
// parse or type errors.
package main

import (
	"fmt"
	"os"
	"sort"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		var err error
		if dirs, err = packageDirs("."); err != nil {
			fail(err)
		}
	}
	ld := newLoader(".")
	var all []string
	for _, dir := range dirs {
		p, err := ld.load(dir)
		if err != nil {
			fail(err)
		}
		all = append(all, vet(ld.fset, p)...)
	}
	sort.Strings(all)
	for _, d := range all {
		fmt.Println(d)
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "strandvet:", err)
	os.Exit(2)
}
