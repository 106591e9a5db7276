package relax

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the relax goldens under testdata/ from the current implementation")

// recipeLogs renders the relaxation logs of every design's undo and
// redo recipe at the given transaction size, in the relax command's
// subject order.
func recipeLogs(t *testing.T, pairs int) string {
	t.Helper()
	var b strings.Builder
	for _, s := range recipeStreams(t, pairs) {
		res, err := OptimizeStream(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b.WriteString(res.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// corpusDigest optimizes a fixed-seed corpus of random 1-2-thread
// programs, each with up to three requirements drawn from its held
// pairs (the soundness property's generator), and folds every
// relaxation log, or error, into one SHA-256.
func corpusDigest(programs int) string {
	r := rand.New(rand.NewSource(0x7e1a8))
	h := sha256.New()
	for i := 0; i < programs; i++ {
		p := randomProgram(r)
		pool := heldPairs(p)
		var reqs []Requirement
		if len(pool) > 0 {
			for _, idx := range r.Perm(len(pool))[:min(3, len(pool))] {
				reqs = append(reqs, pool[idx])
			}
		}
		res, err := Optimize(Input{Name: fmt.Sprintf("corpus-%d", i), Program: p, Requires: reqs})
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			continue
		}
		h.Write([]byte(res.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the current output (regenerate with -update only for an intended change):\n--- got\n%s", path, got)
	}
}

// TestRecipeLogsGolden pins the full relaxation logs of all twelve
// recipe subjects at pairs 2 and 4, byte for byte.
// Regenerate with: go test ./internal/relax -run TestRecipeLogsGolden -update
func TestRecipeLogsGolden(t *testing.T) {
	for _, pairs := range []int{2, 4} {
		checkGolden(t, fmt.Sprintf("testdata/recipe_logs_pairs%d.txt", pairs), recipeLogs(t, pairs))
	}
}

// TestRandomCorpusDigest pins the relaxation logs of 500 random
// programs through one digest.
// Regenerate with: go test ./internal/relax -run TestRandomCorpusDigest -update
func TestRandomCorpusDigest(t *testing.T) {
	checkGolden(t, "testdata/random_corpus_digest.txt", corpusDigest(500)+"\n")
}
