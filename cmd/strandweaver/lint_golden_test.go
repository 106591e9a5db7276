package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the lint goldens under testdata/ from the current implementation")

// captureStdout runs fn with os.Stdout redirected to a temporary file
// and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	ferr := fn()
	os.Stdout = saved
	if ferr != nil {
		t.Fatal(ferr)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLintOutputGolden pins the lint command's text and -json output
// byte for byte.
// Regenerate with: go test ./cmd/strandweaver -run TestLintOutputGolden -update
func TestLintOutputGolden(t *testing.T) {
	for path, args := range map[string][]string{
		"testdata/lint.txt":  {"lint"},
		"testdata/lint.json": {"lint", "-json"},
	} {
		o := parse(t, args...)
		got := captureStdout(t, func() error { return runLint(o) })
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s (regenerate with -update): %v", path, err)
		}
		if got != string(want) {
			t.Errorf("%v output differs from %s (regenerate with -update only for an intended change):\n%s", args, path, got)
		}
	}
}
