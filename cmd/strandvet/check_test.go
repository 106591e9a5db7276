package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"math/bits"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"strandweaver/internal/mem"
)

// testLoader is the loader every test shares, so each package, the
// standard library's included, is type-checked once per test binary.
var testLoader = sync.OnceValue(func() *loader { return newLoader(filepath.Join("..", "..")) })

// modulePackages type-checks the packages strandvet checks by default.
func modulePackages(t *testing.T) []*checkedPkg {
	t.Helper()
	ld := testLoader()
	dirs, err := packageDirs(ld.root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*checkedPkg, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = ld.load(dir); err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// typeCheckFixture type-checks src as a file of the package whose
// import path is path. At the path of a module package the fixture
// joins that package's own files.
func typeCheckFixture(t *testing.T, path, src string) *checkedPkg {
	t.Helper()
	ld := testLoader()
	f, err := parser.ParseFile(ld.fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	if rel, ok := strings.CutPrefix(path, modulePath+"/"); ok {
		if files, err = ld.parseDir(filepath.Join(ld.root, rel)); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	p, err := ld.typeCheck(path, files)
	if err != nil {
		t.Fatalf("type-checking the fixture: %v", err)
	}
	return p
}

// checkAt applies the rules to a fixture in the package at path and
// returns their diagnostics.
func checkAt(t *testing.T, path, src string) []string {
	t.Helper()
	return vet(testLoader().fset, typeCheckFixture(t, path, src))
}

// runCheck applies the rules to a fixture package of its own.
func runCheck(t *testing.T, src string) []string {
	t.Helper()
	return checkAt(t, "fixture", src)
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

func TestFlagsTimeNowFunctionValue(t *testing.T) {
	diags := runCheck(t, `package p
import "time"
var clock = time.Now
`)
	wantDiags(t, diags, "call to time.Now")
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

func TestFlagsDotImportedGlobalRand(t *testing.T) {
	diags := runCheck(t, `package p
import . "math/rand"
func f() int { return Intn(10) }
`)
	wantDiags(t, diags, "call to rand.Intn")
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

func TestFlagsMapFieldRangePrinting(t *testing.T) {
	diags := runCheck(t, `package p
import "fmt"
type index struct{ names map[string]int }
func (x *index) dump() {
	for k := range x.names {
		fmt.Println(k)
	}
}
`)
	wantDiags(t, diags, "map iteration feeds ordered output (fmt.Println)")
}

func TestFlagsMapCallRangePrinting(t *testing.T) {
	diags := runCheck(t, `package p
import "fmt"
func counts() map[string]int { return nil }
func f() {
	for k := range counts() {
		fmt.Println(k)
	}
}
`)
	wantDiags(t, diags, "map iteration feeds ordered output (fmt.Println)")
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
	for _, p := range modulePackages(t) {
		if diags := vet(testLoader().fset, p); len(diags) > 0 {
			t.Errorf("%s: unexpected diagnostics: %v", p.pkg.Path(), diags)
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
	Eng     sim.Stats
	At      sim.Cycle
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

// The page-pointer fixtures spell the length from mem.PageBytes, so
// the rule and its tests follow the page size together.
var pageShift = bits.TrailingZeros(uint(mem.PageBytes))

func TestFlagsRawPagePointerLiteral(t *testing.T) {
	diags := runCheck(t, fmt.Sprintf(`package p
type cache struct {
	pages map[uint64]*[%d]byte
	hex   *[%#x]byte
}
`, mem.PageBytes, mem.PageBytes))
	wantDiags(t, diags, "raw page pointer", "raw page pointer")
}

func TestFlagsRawPagePointerShift(t *testing.T) {
	diags := runCheck(t, fmt.Sprintf(`package p
func f() *[1 << %d]byte { return nil }
`, pageShift))
	wantDiags(t, diags, "raw page pointer")
}

func TestFlagsRawPagePointerNamedConstant(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/mem"
var p *[mem.PageBytes]byte
`)
	wantDiags(t, diags, "raw page pointer")
}

func TestFlagsRawPagePointerDerivedConstant(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/mem"
const pageLen = mem.PageBytes
var p *[pageLen]byte
`)
	wantDiags(t, diags, "raw page pointer")
}

func TestFlagsRawPagePointerProduct(t *testing.T) {
	diags := runCheck(t, fmt.Sprintf(`package p
var p *[2 * %d]byte
`, mem.PageBytes/2))
	wantDiags(t, diags, "raw page pointer")
}

func TestAllowsPagePointerInsideMem(t *testing.T) {
	diags := checkAt(t, memPath, fmt.Sprintf(`package mem
type fixturePage struct {
	data *[%d]byte
}
`, mem.PageBytes))
	wantDiags(t, diags)
}

// Arrays of another size are not pages, even ones that used to be.
func TestAllowsOtherPowerOfTwoArrayPointers(t *testing.T) {
	diags := runCheck(t, fmt.Sprintf(`package p
type frame struct {
	data  *[%d]byte
	shift *[1 << %d]byte
}
`, 16*mem.PageBytes, pageShift+4))
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

func TestFlagsReturnedProgramMutation(t *testing.T) {
	diags := runCheck(t, `package p
import "strandweaver/internal/pmo"
func build() pmo.Program { return make(pmo.Program, 1) }
func f() {
	prog := build()
	prog[0] = nil
}
`)
	wantDiags(t, diags, "direct mutation of pmo.Program slice prog")
}

func TestAllowsProgramMutationInsideOwners(t *testing.T) {
	for _, owner := range []struct{ path, src string }{
		{pmoPath, `package pmo
func fixtureMutate(prog Program) { prog[0] = nil }
`},
		{relaxPath, `package relax
import "strandweaver/internal/pmo"
func fixtureMutate(prog pmo.Program) { prog[0] = nil }
`},
	} {
		if diags := checkAt(t, owner.path, owner.src); len(diags) != 0 {
			t.Errorf("%s: got diagnostics %v, want none (exempt owner)", owner.path, diags)
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
