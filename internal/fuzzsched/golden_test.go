package fuzzsched

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search_golden.json from the current implementation")

// searchGoldenPath pins whole searches: the corpus digest (every
// entry's genome, coverage key, fingerprint and failure), its size, and
// every violation's repro file.
const searchGoldenPath = "testdata/search_golden.json"

// searchGoldenOptions are the pinned searches: a healthy model over
// both direct targets, the seeded data-flush mutant (violations,
// shrinking) and a two-controller machine.
var searchGoldenOptions = map[string]Options{
	"plain-seed3":        {Seed: 3, Schedules: 48, Parallel: 4},
	"mutant-seed1":       {Seed: 1, Schedules: 64, Targets: []string{TargetUndolog}, Mutant: MutantNoDataFlush, Parallel: 4},
	"controllers2-seed2": {Seed: 2, Schedules: 24, Targets: []string{TargetUndolog}, Exec: ExecOptions{Controllers: 2}},
}

type searchGolden struct {
	CorpusDigest string   `json:"corpus_digest"`
	CorpusSize   int      `json:"corpus_size"`
	Repros       []string `json:"repros"`
}

// TestSearchGolden: each pinned search must reproduce its recorded
// corpus and violation repros byte for byte.
// Regenerate with: go test ./internal/fuzzsched -run TestSearchGolden -update
func TestSearchGolden(t *testing.T) {
	got := map[string]searchGolden{}
	for name, o := range searchGoldenOptions {
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sg := searchGolden{CorpusDigest: fmt.Sprintf("%016x", res.Corpus.Digest()), CorpusSize: res.Corpus.Len()}
		for _, v := range res.Violations {
			sg.Repros = append(sg.Repros, v.Repro())
		}
		got[name] = sg
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(searchGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d searches)", searchGoldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(searchGoldenPath)
	if err != nil {
		t.Fatalf("read search goldens (regenerate with -update): %v", err)
	}
	var want map[string]searchGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse search goldens: %v", err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !reflect.DeepEqual(want[name], got[name]) {
			t.Errorf("%s: diverged from pinned golden\n  want %+v\n  got  %+v", name, want[name], got[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d searches run, %d pinned (regenerate with -update?)", len(got), len(want))
	}
}
