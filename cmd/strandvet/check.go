package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"strandweaver/internal/mem"
)

// The import paths of the packages the rules name.
const (
	memPath   = modulePath + "/internal/mem"
	pmoPath   = modulePath + "/internal/pmo"
	relaxPath = modulePath + "/internal/relax"
	simPath   = modulePath + "/internal/sim"
)

// vet applies the determinism rules to a type-checked package and
// returns its findings as "file:line: message", in source order.
func vet(fset *token.FileSet, p *checkedPkg) []string {
	var diags []string
	for _, f := range p.files {
		c := &checker{fset: fset, file: f, info: p.info, path: p.pkg.Path(), suppressed: suppressedLines(fset, f)}
		ast.Inspect(f, c.visit)
		diags = append(diags, c.diags...)
	}
	return diags
}

type checker struct {
	fset *token.FileSet
	file *ast.File
	info *types.Info
	// path is the import path of the file's package.
	path string
	// suppressed holds the line numbers covered by //strandvet:ok.
	suppressed map[int]bool
	diags      []string
}

// suppressedLines collects the lines a //strandvet:ok comment covers:
// its own line (for end-of-line comments) and the next line (for a
// comment placed above the flagged statement).
func suppressedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//strandvet:ok") {
				line := fset.Position(c.Pos()).Line
				lines[line] = true
				lines[line+1] = true
			}
		}
	}
	return lines
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	p := c.fset.Position(pos)
	if c.suppressed[p.Line] {
		return
	}
	c.diags = append(c.diags, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
}

func (c *checker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.Ident:
		c.checkFuncUse(n)
	case *ast.AssignStmt:
		c.checkProgramMutation(n)
	case *ast.RangeStmt:
		c.checkRange(n)
	case *ast.TypeSpec:
		c.checkCheckpointType(n)
	case *ast.StarExpr:
		c.checkPagePointer(n)
	}
	return true
}

// qualify names pkg as the file does: by the name the file imports it
// under, or by its package name when the file has no name for it (a
// dot import, or a type that reaches the file through another
// package).
func (c *checker) qualify(pkg *types.Package) string {
	for _, spec := range c.file.Imports {
		obj := c.info.Implicits[spec]
		if spec.Name != nil {
			obj = c.info.Defs[spec.Name]
		}
		if pn, ok := obj.(*types.PkgName); ok && pn.Imported() == pkg && pn.Name() != "." && pn.Name() != "_" {
			return pn.Name()
		}
	}
	return pkg.Name()
}

// pkgFunc returns the package-level function id refers to, or nil.
func (c *checker) pkgFunc(id *ast.Ident) *types.Func {
	fn, ok := c.info.Uses[id].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// typeName returns the declaration of t when t is the named type name
// of the package at path, and nil otherwise.
func typeName(t types.Type, path, name string) *types.TypeName {
	if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == path && n.Obj().Name() == name {
		return n.Obj()
	}
	return nil
}

// checkPagePointer flags raw page pointer types — a pointer to a byte
// array whose length is mem.PageBytes, however the length is spelled —
// outside internal/mem. A page pointer held elsewhere escapes the COW
// images' ownership protocol: writes through it mutate storage that
// frozen checkpoints may share, corrupting captured state without
// tripping the frozen guard (docs/DETERMINISM.md). Pointers to other
// array sizes (notably [mem.LineSize]byte line buffers) are fine.
func (c *checker) checkPagePointer(se *ast.StarExpr) {
	tv := c.info.Types[se]
	if c.path == memPath || !tv.IsType() {
		return
	}
	arr, ok := tv.Type.Underlying().(*types.Pointer).Elem().Underlying().(*types.Array)
	if !ok || arr.Len() != mem.PageBytes || !types.Identical(arr.Elem(), types.Typ[types.Byte]) {
		return
	}
	c.report(se.Pos(), "raw page pointer type *[%d]byte outside internal/mem: page storage belongs to the COW images' ownership protocol (docs/DETERMINISM.md); hold *mem.Image or account pages via mem.PageRefs instead", mem.PageBytes)
}

// checkCheckpointType enforces the docs/SNAPSHOT.md passive-data rule
// on checkpoint-carrying struct types (names ending in Checkpoint,
// Snapshot or State): their fields must not retain behaviour or live
// simulator references. A func-typed field is a cached thunk whose
// closure binds the system it was captured from; a chan-typed field is
// live plumbing; a *sim.Engine field aliases the engine the snapshot
// was taken on. All three make a restore silently act on the wrong
// system. Rebuild such state through the owner's alloc path on restore
// instead, or suppress with //strandvet:ok for a field that is
// genuinely decoupled.
func (c *checker) checkCheckpointType(ts *ast.TypeSpec) {
	name := ts.Name.Name
	if !strings.HasSuffix(name, "Checkpoint") && !strings.HasSuffix(name, "Snapshot") &&
		!strings.HasSuffix(name, "State") {
		return
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, f := range st.Fields.List {
		bad := c.active(c.info.TypeOf(f.Type))
		if bad == "" {
			continue
		}
		fieldName := "embedded"
		if len(f.Names) > 0 {
			fieldName = f.Names[0].Name
		}
		c.report(f.Pos(), "checkpoint type %s has %s field %s: checkpoints are passive data (docs/SNAPSHOT.md); rebuild bound behaviour through the owner's alloc path on restore", name, bad, fieldName)
	}
}

// active names what in a field of type t would act after a restore: a
// function, a channel or a sim.Engine, anywhere in the types t is
// built from, type arguments included. Another named type's fields
// are not looked into: a checkpoint type among them answers for its
// own.
func (c *checker) active(t types.Type) string {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if obj := typeName(t, simPath, "Engine"); obj != nil {
			return c.qualify(obj.Pkg()) + ".Engine-referencing"
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if bad := c.active(t.TypeArgs().At(i)); bad != "" {
				return bad
			}
		}
		switch t.Underlying().(type) {
		case *types.Signature, *types.Chan:
			return c.active(t.Underlying())
		}
	case *types.Signature:
		return "function-typed"
	case *types.Chan:
		return "channel-typed"
	case *types.Map:
		if bad := c.active(t.Key()); bad != "" {
			return bad
		}
		return c.active(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array
		return c.active(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if bad := c.active(t.Field(i).Type()); bad != "" {
				return bad
			}
		}
	}
	return ""
}

// checkFuncUse flags any use — a call, a function value — of a
// wall-clock read (time.Now, time.Since, time.Until) or of a function
// of the global math/rand generator (rand.Intn, rand.Float64, ...; the
// constructors rand.New, rand.NewSource, ... are fine), under whatever
// name the file imports the package.
func (c *checker) checkFuncUse(id *ast.Ident) {
	fn := c.pkgFunc(id)
	if fn == nil {
		return
	}
	name := c.qualify(fn.Pkg()) + "." + fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			c.report(id.Pos(), "call to %s: measured paths must not read the wall clock (docs/DETERMINISM.md); derive time from simulated cycles or suppress with //strandvet:ok for metrics-only code", name)
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(fn.Name(), "New") {
			c.report(id.Pos(), "call to %s: the global math/rand generator is unseeded shared state (docs/DETERMINISM.md); use a seeded instance from %s.New", name, c.qualify(fn.Pkg()))
		}
	}
}

// checkProgramMutation flags assignment through an index on a
// pmo.Program value — `p[t] = ...`, `p[t][i] = op`,
// `p[t] = append(p[t], op)` — outside internal/pmo and internal/relax.
// Programs are rewritten only through the sanctioned surface
// (Clone/WithOp/WithoutOp/WithInsert), which returns a fresh program
// per transform: a mutated program has no before/after pair to
// validate, so its relaxation cannot be proved against the crash-cut
// oracle. Construction of a freshly allocated program is exempt via
// //strandvet:ok.
func (c *checker) checkProgramMutation(as *ast.AssignStmt) {
	if c.path == pmoPath || c.path == relaxPath {
		return
	}
	for _, lhs := range as.Lhs {
		for ix, ok := lhs.(*ast.IndexExpr); ok; ix, ok = ix.X.(*ast.IndexExpr) {
			obj := typeName(c.info.TypeOf(ix.X), pmoPath, "Program")
			if obj == nil {
				continue
			}
			pmo := c.qualify(obj.Pkg())
			c.report(lhs.Pos(), "direct mutation of %s.Program slice %s: programs are rewritten only via the %s rewrite surface (Clone/WithOp/WithoutOp/WithInsert) so every transform has a before/after pair the relaxation oracle can validate; suppress with //strandvet:ok only for construction of a freshly allocated program", pmo, types.ExprString(ix.X), pmo)
			break
		}
	}
}

// checkRange flags `for range` over a map when the loop body feeds
// ordered output (printing or writing directly inside the body): map
// iteration order would then leak into results. Iterating to build an
// unordered aggregate (sums, sets, another map) is fine.
func (c *checker) checkRange(rng *ast.RangeStmt) {
	if _, ok := c.info.TypeOf(rng.X).Underlying().(*types.Map); !ok {
		return
	}
	if out := c.findOutputCall(rng.Body); out != "" {
		c.report(rng.Pos(), "map iteration feeds ordered output (%s): iteration order is random (docs/DETERMINISM.md); range over sorted keys instead", out)
	}
}

// findOutputCall returns a description of the first output call in the
// body (fmt printing, or a Write*/print method call), or "".
func (c *checker) findOutputCall(body *ast.BlockStmt) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if fn := c.pkgFunc(sel.Sel); fn != nil && fn.Pkg().Path() == "fmt" {
			if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
				found = "fmt." + name
			}
			return true
		}
		if strings.HasPrefix(name, "Write") || name == "Print" || name == "Printf" || name == "Println" {
			found = "." + name
		}
		return true
	})
	return found
}
