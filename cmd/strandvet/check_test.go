package main

import (
	"strings"
	"testing"
)

// runCheck applies the checker to an inline fixture and returns its
// diagnostics.
func runCheck(t *testing.T, src string) []string {
	t.Helper()
	diags, err := checkSource("fixture.go", []byte(src))
	if err != nil {
		t.Fatalf("checkSource: %v", err)
	}
	return diags
}

func wantDiags(t *testing.T, diags []string, substrs ...string) {
	t.Helper()
	if len(diags) != len(substrs) {
		t.Fatalf("got %d diagnostics %v, want %d", len(diags), diags, len(substrs))
	}
	for i, want := range substrs {
		if !strings.Contains(diags[i], want) {
			t.Errorf("diag %d = %q, want substring %q", i, diags[i], want)
		}
	}
}

func TestFlagsTimeNow(t *testing.T) {
	diags := runCheck(t, `package p
import "time"
func f() time.Time { return time.Now() }
`)
	wantDiags(t, diags, "time.Now")
}

func TestFlagsAliasedTimeNow(t *testing.T) {
	diags := runCheck(t, `package p
import clock "time"
func f() clock.Time { return clock.Now() }
`)
	wantDiags(t, diags, "clock.Now")
}

func TestFlagsTimeSinceAndUntil(t *testing.T) {
	diags := runCheck(t, `package p
import "time"
func f(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() }
func g(t0 time.Time) time.Duration { return time.Until(t0) }
`)
	wantDiags(t, diags, "time.Since", "time.Until")
}

func TestAllowsOtherTimeFunctions(t *testing.T) {
	diags := runCheck(t, `package p
import "time"
func f() time.Duration { return 3 * time.Millisecond }
func g(d time.Duration) { time.Sleep(d) }
`)
	wantDiags(t, diags)
}

func TestFlagsGlobalRand(t *testing.T) {
	diags := runCheck(t, `package p
import "math/rand"
func f() int { return rand.Intn(10) }
`)
	wantDiags(t, diags, "rand.Intn")
}

func TestAllowsSeededRandConstructors(t *testing.T) {
	diags := runCheck(t, `package p
import "math/rand"
func f(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func g(r *rand.Rand) int { return r.Intn(10) }
`)
	wantDiags(t, diags)
}

func TestShadowedPackageNameNotFlagged(t *testing.T) {
	diags := runCheck(t, `package p
type fake struct{}
func (fake) Now() int { return 0 }
func f() int {
	time := fake{}
	return time.Now()
}
`)
	wantDiags(t, diags)
}

func TestFlagsMapRangePrinting(t *testing.T) {
	diags := runCheck(t, `package p
import "fmt"
func f() {
	m := map[string]int{"a": 1}
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`)
	wantDiags(t, diags, "map iteration feeds ordered output (fmt.Printf)")
}

func TestFlagsMapRangeWriterMethod(t *testing.T) {
	diags := runCheck(t, `package p
import "strings"
func f(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}
`)
	wantDiags(t, diags, "map iteration feeds ordered output (.WriteString)")
}

func TestAllowsMapRangeAggregation(t *testing.T) {
	diags := runCheck(t, `package p
func f(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
`)
	wantDiags(t, diags)
}

func TestAllowsSliceRangePrinting(t *testing.T) {
	diags := runCheck(t, `package p
import "fmt"
func f(names []string) {
	for _, n := range names {
		fmt.Println(n)
	}
}
`)
	wantDiags(t, diags)
}

func TestSuppressionSameLine(t *testing.T) {
	diags := runCheck(t, `package p
import "time"
func f() time.Time { return time.Now() } //strandvet:ok metrics only
`)
	wantDiags(t, diags)
}

func TestSuppressionPrecedingLine(t *testing.T) {
	diags := runCheck(t, `package p
import "time"
func f() time.Time {
	//strandvet:ok metrics only
	return time.Now()
}
`)
	wantDiags(t, diags)
}

func TestDefaultDirsAreClean(t *testing.T) {
	// The CI wiring runs strandvet from the repo root over these
	// packages; the tree must stay clean (legitimate uses carry
	// //strandvet:ok with a justification).
	for _, dir := range defaultDirs {
		diags, err := checkDir("../../" + dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if len(diags) > 0 {
			t.Errorf("%s: unexpected diagnostics: %v", dir, diags)
		}
	}
}

func TestFlagsFuncFieldInCheckpointType(t *testing.T) {
	diags := runCheck(t, `package p
type DrainState struct {
	Line    uint64
	retryFn func() bool
}
`)
	wantDiags(t, diags, "function-typed field retryFn")
}

func TestFlagsChanFieldInSnapshotType(t *testing.T) {
	diags := runCheck(t, `package p
type UnitSnapshot struct {
	acks chan int
}
`)
	wantDiags(t, diags, "channel-typed field acks")
}

func TestFlagsEngineFieldInCheckpointType(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/sim"
type Checkpoint struct {
	Eng *sim.Engine
}
`)
	wantDiags(t, diags, "sim.Engine-referencing field Eng")
}

func TestAllowsPassiveCheckpointFields(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/sim"
type UnitState struct {
	Seq     uint64
	Eng     sim.EngineState
	Entries []struct{ Line uint64 }
	Extra   any
}
`)
	wantDiags(t, diags)
}

func TestAllowsFuncFieldsOutsideCheckpointTypes(t *testing.T) {
	diags := runCheck(t, `package p
type worker struct {
	run func() error
	out chan int
}
`)
	wantDiags(t, diags)
}

func TestFlagsRawPagePointerLiteral(t *testing.T) {
	diags := runCheck(t, `package p
type cache struct {
	pages map[uint64]*[65536]byte
}
`)
	wantDiags(t, diags, "raw page pointer")
}

func TestFlagsRawPagePointerShift(t *testing.T) {
	diags := runCheck(t, `package p
func f() *[1 << 16]byte { return nil }
`)
	wantDiags(t, diags, "raw page pointer")
}

func TestFlagsRawPagePointerNamedConstant(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/mem"
var p *[mem.PageBytes]byte
`)
	wantDiags(t, diags, "raw page pointer")
}

func TestAllowsPagePointerInsideMem(t *testing.T) {
	diags, err := checkSource("internal/mem/fixture.go", []byte(`package mem
type pageRef struct {
	data *[65536]byte
}
`))
	if err != nil {
		t.Fatalf("checkSource: %v", err)
	}
	wantDiags(t, diags)
}

func TestAllowsLineSizedArrayPointers(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/mem"
func f(buf *[mem.LineSize]byte, small *[64]byte) {}
`)
	wantDiags(t, diags)
}

func TestCheckpointFieldSuppression(t *testing.T) {
	diags := runCheck(t, `package p
type BufferState struct {
	done func() //strandvet:ok decoupled continuation, rebound on restore
}
`)
	wantDiags(t, diags)
}

func TestFlagsProgramIndexAssignment(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/pmo"
func f(prog pmo.Program) {
	prog[0][1] = pmo.Op{}
}
`)
	wantDiags(t, diags, "direct mutation of pmo.Program slice prog")
}

func TestFlagsProgramAppendAssignment(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/pmo"
func f() {
	prog := make(pmo.Program, 2)
	prog[0] = append(prog[0], pmo.Op{})
}
`)
	wantDiags(t, diags, "direct mutation of pmo.Program slice prog")
}

func TestFlagsProgramLiteralMutation(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/pmo"
func f() {
	var prog pmo.Program
	prog = pmo.Program{nil}
	prog[0] = nil
	q := pmo.Program{nil}
	q[0] = nil
}
`)
	wantDiags(t, diags,
		"direct mutation of pmo.Program slice prog",
		"direct mutation of pmo.Program slice q")
}

func TestFlagsAliasedProgramMutation(t *testing.T) {
	diags := runCheck(t, `package p
import model "strandweaver/internal/pmo"
func f(prog model.Program) {
	prog[0] = nil
}
`)
	wantDiags(t, diags, "direct mutation of model.Program slice prog")
}

func TestAllowsProgramMutationInsideOwners(t *testing.T) {
	src := `package pmo
import "strandweaver/internal/pmo"
func f(prog pmo.Program) { prog[0] = nil }
`
	for _, dir := range []string{"internal/pmo", "internal/relax"} {
		diags, err := checkSource(dir+"/fixture.go", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Errorf("%s: got diagnostics %v, want none (exempt owner)", dir, diags)
		}
	}
}

func TestAllowsNonProgramIndexAssignment(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/pmo"
func f(ops []pmo.Op, xs []int) {
	ops[0] = pmo.Op{}
	xs[1] = 2
}
`)
	wantDiags(t, diags)
}

func TestProgramMutationSuppression(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/pmo"
func f() {
	prog := make(pmo.Program, 1)
	prog[0] = append(prog[0], pmo.Op{}) //strandvet:ok fresh construction
}
`)
	wantDiags(t, diags)
}
