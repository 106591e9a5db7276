package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of the repository's module, whose
// root is two directories above this package.
const modulePath = "strandweaver"

// TestNoWriteOnlyFields type-checks every package under internal/ and
// cmd/ and fails on an unexported struct field that no non-test file
// reads: a field the simulator only writes is a second copy of a fact
// kept in step by hand, or a fact nobody needs. A field is read when a
// non-test file selects it anywhere but as the target of an
// assignment or an increment (a field of a struct value the target
// selects counts as assigned too), when a struct holding it is
// compared with == or !=, or when a struct holding it is a map key. A
// //strandvet:ok comment on the field's line, or the line above,
// exempts it.
func TestNoWriteOnlyFields(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() || d.Name() == "testdata" {
				return err
			}
			if names, _ := goFiles(path); len(names) > 0 {
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fc := newFieldChecker(root, modulePath)
	var found []string
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		ds, err := fc.writeOnly(modulePath + "/" + filepath.ToSlash(rel))
		if err != nil {
			t.Fatal(err)
		}
		found = append(found, ds...)
	}
	for _, d := range found {
		t.Errorf("%s: unexported field is written but never read outside tests", d)
	}
}

// TestWriteOnlyFieldRules pins what counts as a read on a fixture
// package.
func TestWriteOnlyFieldRules(t *testing.T) {
	dir := t.TempDir()
	src := `package p

type key struct{ a, b int }

type cmpd struct{ x int }

type s struct {
	read     int
	written  int
	bumped   int
	inner    struct{ deep int }
	arr      [2]int
	ptr      *s
	taken    int
	exempt   int //strandvet:ok
	_        int
}

var m map[key]bool

func f(v *s, c cmpd) int {
	v.written = 1
	v.bumped++
	v.bumped += 2
	v.inner.deep = 3
	v.arr[0] = 4
	v.ptr.written = 5
	v.exempt = 6
	g(&v.taken)
	_ = c == cmpd{}
	return v.read
}

func g(*int) {}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := newFieldChecker(dir, "fixture").writeOnly("fixture")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range got {
		names = append(names, d[strings.LastIndex(d, " ")+1:])
	}
	want := []string{"written", "bumped", "inner", "deep", "arr"}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("write-only fields %v, want %v", names, want)
	}
}

// goFiles lists the non-test Go files of dir that the build includes.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	return names, nil
}

// fieldChecker type-checks the module's packages from source, each
// once, and the standard library through the source importer.
type fieldChecker struct {
	root, module string
	fset         *token.FileSet
	std          types.ImporterFrom
	pkgs         map[string]*checkedPkg
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// newFieldChecker returns a checker of the module at root whose
// import path is module.
func newFieldChecker(root, module string) *fieldChecker {
	fset := token.NewFileSet()
	return &fieldChecker{
		root: root, module: module, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*checkedPkg),
	}
}

func (fc *fieldChecker) Import(path string) (*types.Package, error) {
	return fc.ImportFrom(path, "", 0)
}

func (fc *fieldChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != fc.module && !strings.HasPrefix(path, fc.module+"/") {
		return fc.std.ImportFrom(path, dir, mode)
	}
	p, err := fc.check(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// check type-checks the module package at path.
func (fc *fieldChecker) check(path string) (*checkedPkg, error) {
	if p := fc.pkgs[path]; p != nil {
		return p, nil
	}
	dir := filepath.Join(fc.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, fc.module), "/")))
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	p := &checkedPkg{info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	for _, name := range names {
		f, err := parser.ParseFile(fc.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: fc}
	if p.pkg, err = conf.Check(path, fc.fset, p.files, p.info); err != nil {
		return nil, err
	}
	fc.pkgs[path] = p
	return p, nil
}

// writeOnly reports the package's unexported struct fields that its
// non-test files never read, as "file:line: field".
func (fc *fieldChecker) writeOnly(path string) ([]string, error) {
	p, err := fc.check(path)
	if err != nil {
		return nil, err
	}
	// The package's unexported named fields, by declaration; an
	// embedded field is read wherever a promoted name is, and is not
	// checked.
	declared := make(map[*types.Var]*ast.Ident)
	for _, f := range p.files {
		exempt := suppressedLines(fc.fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() || id.Name == "_" || exempt[fc.fset.Position(id.Pos()).Line] {
						continue
					}
					if v, ok := p.info.Defs[id].(*types.Var); ok {
						declared[v] = id
					}
				}
			}
			return true
		})
	}
	read := make(map[*types.Var]bool)
	// under is the underlying type of expression e, or nil when e is
	// no typed value (a package name).
	under := func(e ast.Expr) types.Type {
		if tv, ok := p.info.Types[e]; ok && tv.Type != nil {
			return tv.Type.Underlying()
		}
		return nil
	}
	// readAll marks every field of a compared or map-keyed type read.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				readAll(u.Field(i).Type().Underlying())
			}
		case *types.Array:
			readAll(u.Elem().Underlying())
		}
	}
	for e := range p.info.Types {
		if m, ok := under(e).(*types.Map); ok {
			readAll(m.Key().Underlying())
		}
	}
	for _, f := range p.files {
		assigned := make(map[ast.Expr]bool)
		// target marks an assignment target and the struct values and
		// arrays it is a part of: selecting or indexing them to assign
		// reads nothing.
		var target func(e ast.Expr)
		target = func(e ast.Expr) {
			assigned[e] = true
			switch x := e.(type) {
			case *ast.ParenExpr:
				target(x.X)
			case *ast.SelectorExpr:
				if _, ok := under(x.X).(*types.Struct); ok {
					target(x.X)
				}
			case *ast.IndexExpr:
				if _, ok := under(x.X).(*types.Array); ok {
					target(x.X)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.BinaryExpr:
				if x.Op == token.EQL || x.Op == token.NEQ {
					readAll(under(x.X))
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && !assigned[sel] {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					read[s.Obj().(*types.Var).Origin()] = true
				}
			}
			return true
		})
	}
	var out []string
	for v, id := range declared {
		if read[v] {
			continue
		}
		pos := fc.fset.Position(id.Pos())
		rel, _ := filepath.Rel(fc.root, pos.Filename)
		out = append(out, filepath.ToSlash(rel)+":"+strconv.Itoa(pos.Line)+": "+id.Name)
	}
	sort.Strings(out)
	return out, nil
}
