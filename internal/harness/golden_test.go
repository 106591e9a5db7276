package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"strandweaver/internal/hwdesign"
	"strandweaver/internal/langmodel"
	"strandweaver/internal/litmus"
	"strandweaver/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json from the current implementation")

// legacyDesigns are the five designs that predate the pluggable persist
// backend layer. They are enumerated explicitly rather than via
// hwdesign.All so that registering additional designs (eADR and future
// baselines) cannot silently change what this guard covers.
var legacyDesigns = []hwdesign.Design{
	hwdesign.IntelX86,
	hwdesign.HOPS,
	hwdesign.NoPersistQueue,
	hwdesign.StrandWeaver,
	hwdesign.NonAtomic,
}

// Golden scale: small enough to run in seconds, large enough that every
// design exercises its full persist path (queue pressure, gated
// write-backs, overflow) on all Table II benchmarks.
const (
	goldenThreads = 2
	goldenOps     = 20
	goldenSeed    = 1
	goldenStride  = 64
)

type goldenLitmus struct {
	TotalCycles uint64            `json:"total_cycles"`
	CrashPoints int               `json:"crash_points"`
	States      map[string]uint64 `json:"states"`
}

type goldenCell struct {
	Cycles uint64 `json:"cycles"`
	Digest string `json:"digest"`
}

type goldenFile struct {
	Comment string                  `json:"_comment"`
	Litmus  map[string]goldenLitmus `json:"litmus"`
	Grid    map[string]goldenCell   `json:"grid"`
	Table2  map[string]float64      `json:"table2_ckc"`
}

const goldenPath = "testdata/golden_digests.json"

// resultDigest hashes the complete measurement (cycles, per-core stat
// totals, controller counters, derived metrics) so any behavioral drift
// in the persist path shows up, not just end-to-end cycle counts.
//
// Coverage note: these digests are also the enforcement mechanism for
// the sim-engine ordering contract (docs/DETERMINISM.md): any event
// core change that perturbs the (cycle, seq) fire order — wheel or heap
// layout, coroutine handshake, entry pooling — moves
// cycle counts or stall totals somewhere in this grid and fails here.
// Result.Engine (the event-core counters) is deliberately excluded
// from the marshalled form via `json:"-"`: the counters describe the
// engine's internals, not simulated behaviour, and must be free to
// change without regenerating goldens
// (TestEngineCountersExcludedFromResultJSON pins the exclusion).
func resultDigest(r *Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// currentGolden measures the litmus outcomes, the benchmark grid over
// the five legacy designs, and the Table II write intensities on the
// code under test.
func currentGolden(t *testing.T) *goldenFile {
	t.Helper()
	g := &goldenFile{
		Comment: "Behavioral digests of the five pre-backend designs (litmus Fig 2 outcomes, benchmark grid, Table II CKC). Regenerate with: go test ./internal/harness -run TestGoldenDigests -update",
		Litmus:  map[string]goldenLitmus{},
		Grid:    map[string]goldenCell{},
		Table2:  map[string]float64{},
	}

	progs := litmus.StandardPrograms()
	for _, n := range litmus.StandardProgramNames() {
		r, err := litmus.Check(progs[n], goldenStride)
		if err != nil {
			t.Fatalf("litmus %s: %v", n, err)
		}
		states := make(map[string]uint64, len(r.States))
		for k, v := range r.States {
			states[k] = v
		}
		g.Litmus[n] = goldenLitmus{TotalCycles: r.TotalCycles, CrashPoints: r.CrashPoints, States: states}
	}

	for _, b := range workloads.Names() {
		for _, m := range langmodel.All {
			for _, d := range legacyDesigns {
				spec := Spec{Benchmark: b, Model: m, Design: d,
					Threads: goldenThreads, OpsPerThread: goldenOps, Seed: goldenSeed}
				r, err := Run(spec)
				if err != nil {
					t.Fatalf("grid %s: %v", specKey(spec), err)
				}
				g.Grid[specKey(spec)] = goldenCell{Cycles: r.Cycles, Digest: resultDigest(r)}
			}
		}
	}

	rows, err := Table2(ExpOptions{Threads: goldenThreads, OpsPerThread: goldenOps, Seed: goldenSeed, Parallel: 1})
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	for _, row := range rows {
		g.Table2[row.Benchmark] = row.CKC
	}
	return g
}

// TestGoldenDigests is the refactor guard: the five legacy designs must
// produce byte-identical litmus outcomes, grid measurements and Table II
// values to the digests pinned before the persist-backend extraction.
func TestGoldenDigests(t *testing.T) {
	got := currentGolden(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d litmus programs, %d grid cells, %d table2 rows)",
			goldenPath, len(got.Litmus), len(got.Grid), len(got.Table2))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}

	compareGoldenSection(t, "litmus", want.Litmus, got.Litmus)
	compareGoldenSection(t, "grid", want.Grid, got.Grid)
	compareGoldenSection(t, "table2", want.Table2, got.Table2)
}

// compareGoldenSection diffs one golden map key-by-key so a mismatch
// names the exact program or grid cell that diverged.
func compareGoldenSection[V any](t *testing.T, section string, want, got map[string]V) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		gv, ok := got[k]
		if !ok {
			t.Errorf("%s[%s]: missing from current run", section, k)
			continue
		}
		if !reflect.DeepEqual(want[k], gv) {
			t.Errorf("%s[%s]: diverged from pinned golden\n  want %s\n  got  %s",
				section, k, mustJSON(want[k]), mustJSON(gv))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s[%s]: not present in pinned goldens (regenerate with -update?)", section, k)
		}
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%+v", v)
	}
	return string(b)
}
