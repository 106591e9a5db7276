package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
	"testing"
)

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
	ld := testLoader()
	for _, p := range modulePackages(t) {
		for _, d := range writeOnly(ld.fset, p) {
			t.Errorf("%s: unexported field is written but never read outside tests", d)
		}
	}
}

// TestWriteOnlyFieldRules pins what counts as a read on a fixture
// package.
func TestWriteOnlyFieldRules(t *testing.T) {
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
	var names []string
	for _, d := range writeOnly(testLoader().fset, typeCheckFixture(t, "fixture", src)) {
		names = append(names, d[strings.LastIndex(d, " ")+1:])
	}
	want := []string{"written", "bumped", "inner", "deep", "arr"}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("write-only fields %v, want %v", names, want)
	}
}

// writeOnly reports the package's unexported struct fields that its
// non-test files never read, as "file:line: field".
func writeOnly(fset *token.FileSet, p *checkedPkg) []string {
	// The package's unexported named fields, by declaration; an
	// embedded field is read wherever a promoted name is, and is not
	// checked.
	declared := make(map[*types.Var]*ast.Ident)
	for _, f := range p.files {
		exempt := suppressedLines(fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() || id.Name == "_" || exempt[fset.Position(id.Pos()).Line] {
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
		pos := fset.Position(id.Pos())
		out = append(out, pos.Filename+":"+strconv.Itoa(pos.Line)+": "+id.Name)
	}
	sort.Strings(out)
	return out
}
