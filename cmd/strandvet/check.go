package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"

	"strandweaver/internal/mem"
)

// checkSource parses one file and applies the determinism rules. It is
// a pure-syntax pass (stdlib go/ast, no type checker): package
// identities come from the file's imports, and map types are resolved
// through in-file declarations, which covers the patterns the rules
// target without a build step.
func checkSource(filename string, src []byte) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	dir := filepath.Base(filepath.Dir(filepath.ToSlash(filename)))
	c := &checker{fset: fset, file: f, suppressed: suppressedLines(fset, f),
		inMem:          dir == "mem",
		inProgramOwner: dir == "pmo" || dir == "relax"}
	c.resolveImports()
	ast.Inspect(f, c.visit)
	return c.diags, nil
}

type checker struct {
	fset *token.FileSet
	file *ast.File
	// timeName and randName are the local names of the "time" and
	// "math/rand" imports ("" when not imported); simName, memName and
	// pmoName are the local names of the internal/sim, internal/mem
	// and internal/pmo imports.
	timeName, randName, simName, memName, pmoName string
	// inMem marks a file of internal/mem itself, where raw page
	// pointers are the implementation rather than a leak.
	inMem bool
	// inProgramOwner marks a file of internal/pmo or internal/relax,
	// the packages that own pmo.Program's rewrite protocol and may
	// mutate program slices directly.
	inProgramOwner bool
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

func (c *checker) resolveImports() {
	for _, imp := range c.file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch path {
		case "time":
			if name == "" {
				name = "time"
			}
			c.timeName = name
		case "math/rand", "math/rand/v2":
			if name == "" {
				name = "rand"
			}
			c.randName = name
		case "strandweaver/internal/sim":
			if name == "" {
				name = "sim"
			}
			c.simName = name
		case "strandweaver/internal/mem":
			if name == "" {
				name = "mem"
			}
			c.memName = name
		case "strandweaver/internal/pmo":
			if name == "" {
				name = "pmo"
			}
			c.pmoName = name
		}
	}
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
	case *ast.CallExpr:
		c.checkCall(n)
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

// checkPagePointer flags raw page-array pointer types — *[N]byte whose
// length N is the value of mem.PageBytes, written as a literal, a shift
// or the named constant — outside internal/mem. A page pointer held
// elsewhere escapes the COW images' ownership protocol: writes through
// it mutate storage that frozen checkpoints may share, corrupting
// captured state without tripping the frozen guard
// (docs/DETERMINISM.md). Pointers to other array sizes (notably
// [mem.LineSize]byte line buffers) are fine.
func (c *checker) checkPagePointer(se *ast.StarExpr) {
	if c.inMem {
		return
	}
	at, ok := se.X.(*ast.ArrayType)
	if !ok {
		return
	}
	if elt, ok := at.Elt.(*ast.Ident); !ok || elt.Name != "byte" {
		return
	}
	if !c.isPageSizeLen(at.Len) {
		return
	}
	c.report(se.Pos(), fmt.Sprintf("raw page pointer type *[%d]byte outside internal/mem: page storage belongs to the COW images' ownership protocol (docs/DETERMINISM.md); hold *mem.Image or account pages via mem.PageRefs instead", mem.PageBytes))
}

// isPageSizeLen matches an array length equal to mem.PageBytes as
// written: an integer literal, a shift of two literals, or the
// mem.PageBytes constant itself.
func (c *checker) isPageSizeLen(n ast.Expr) bool {
	switch n := n.(type) {
	case *ast.BasicLit:
		v, ok := intLit(n)
		return ok && v == mem.PageBytes
	case *ast.BinaryExpr:
		if n.Op != token.SHL {
			return false
		}
		l, lok := n.X.(*ast.BasicLit)
		r, rok := n.Y.(*ast.BasicLit)
		if !lok || !rok {
			return false
		}
		lv, lok := intLit(l)
		rv, rok := intLit(r)
		return lok && rok && rv < 64 && lv<<rv == mem.PageBytes
	case *ast.SelectorExpr:
		id, ok := n.X.(*ast.Ident)
		return ok && id.Obj == nil && c.memName != "" && id.Name == c.memName && n.Sel.Name == "PageBytes"
	case *ast.ParenExpr:
		return c.isPageSizeLen(n.X)
	}
	return false
}

// intLit parses an integer literal in any Go base, with digit
// separators.
func intLit(n *ast.BasicLit) (uint64, bool) {
	if n.Kind != token.INT {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.ReplaceAll(n.Value, "_", ""), 0, 64)
	return v, err == nil
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
		bad := ""
		ast.Inspect(f.Type, func(n ast.Node) bool {
			if bad != "" {
				return false
			}
			switch t := n.(type) {
			case *ast.FuncType:
				bad = "function-typed"
			case *ast.ChanType:
				bad = "channel-typed"
			case *ast.SelectorExpr:
				if id, ok := t.X.(*ast.Ident); ok && id.Obj == nil &&
					c.simName != "" && id.Name == c.simName && t.Sel.Name == "Engine" {
					bad = c.simName + ".Engine-referencing"
				}
			}
			return true
		})
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

// pkgCall matches a call of the form pkgName.Fn(...) where pkgName is
// a plain identifier not shadowed by a local declaration.
func pkgCall(call *ast.CallExpr, pkgName string) (string, bool) {
	if pkgName == "" {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgName || id.Obj != nil {
		return "", false
	}
	return sel.Sel.Name, true
}

func (c *checker) checkCall(call *ast.CallExpr) {
	if fn, ok := pkgCall(call, c.timeName); ok && (fn == "Now" || fn == "Since" || fn == "Until") {
		c.report(call.Pos(), "call to %s.%s: measured paths must not read the wall clock (docs/DETERMINISM.md); derive time from simulated cycles or suppress with //strandvet:ok for metrics-only code", c.timeName, fn)
	}
	if fn, ok := pkgCall(call, c.randName); ok && !strings.HasPrefix(fn, "New") {
		c.report(call.Pos(), "call to %s.%s: the global math/rand generator is unseeded shared state (docs/DETERMINISM.md); use a seeded instance from %s.New", c.randName, fn, c.randName)
	}
}

// checkProgramMutation flags assignment through an index expression on
// a pmo.Program-typed identifier — `p[t] = ...`, `p[t][i] = op`,
// `p[t] = append(p[t], op)` — outside internal/pmo and internal/relax.
// Programs are rewritten only through the sanctioned surface
// (Clone/WithOp/WithoutOp/WithInsert), which returns a fresh program
// per transform: a mutated program has no before/after pair to
// validate, so its relaxation cannot be proved against the crash-cut
// oracle. Construction of a freshly allocated program is exempt via
// //strandvet:ok.
func (c *checker) checkProgramMutation(as *ast.AssignStmt) {
	if c.inProgramOwner || c.pmoName == "" {
		return
	}
	for _, lhs := range as.Lhs {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok {
			continue
		}
		base := ix.X
		for {
			inner, ok := base.(*ast.IndexExpr)
			if !ok {
				break
			}
			base = inner.X
		}
		id, ok := base.(*ast.Ident)
		if !ok || !c.identIsProgram(id) {
			continue
		}
		c.report(lhs.Pos(), "direct mutation of %s.Program slice %s: programs are rewritten only via the %s rewrite surface (Clone/WithOp/WithoutOp/WithInsert) so every transform has a before/after pair the relaxation oracle can validate; suppress with //strandvet:ok only for construction of a freshly allocated program", c.pmoName, id.Name, c.pmoName)
	}
}

// identIsProgram resolves an identifier through its in-file
// declaration looking for the pmo.Program type: an explicit
// pmo.Program type on a var/param/field, a pmo.Program composite
// literal, make(pmo.Program, ...), or a pmo.Program(...) conversion.
func (c *checker) identIsProgram(id *ast.Ident) bool {
	if id.Obj == nil {
		return false
	}
	switch decl := id.Obj.Decl.(type) {
	case *ast.ValueSpec:
		if c.isProgramType(decl.Type) {
			return true
		}
		for i, n := range decl.Names {
			if n.Name == id.Name && i < len(decl.Values) && c.isProgramExpr(decl.Values[i]) {
				return true
			}
		}
	case *ast.Field:
		return c.isProgramType(decl.Type)
	case *ast.AssignStmt:
		for i, lhs := range decl.Lhs {
			l, ok := lhs.(*ast.Ident)
			if !ok || l.Name != id.Name {
				continue
			}
			rhs := decl.Rhs[0]
			if len(decl.Rhs) == len(decl.Lhs) {
				rhs = decl.Rhs[i]
			}
			if c.isProgramExpr(rhs) {
				return true
			}
		}
	}
	return false
}

// isProgramType matches the written type pmo.Program (under the
// import's local name).
func (c *checker) isProgramType(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Obj == nil && id.Name == c.pmoName && sel.Sel.Name == "Program"
}

// isProgramExpr matches expressions statically known to yield a
// pmo.Program: a composite literal, make, or a conversion.
func (c *checker) isProgramExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return c.isProgramType(e.Type)
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			return c.isProgramType(e.Args[0])
		}
		return c.isProgramType(e.Fun) // pmo.Program(x) conversion
	}
	return false
}

// checkRange flags `for range m` over a map when the loop body feeds
// ordered output (printing or writing directly inside the body): map
// iteration order would then leak into results. Iterating to build an
// unordered aggregate (sums, sets, another map) is fine.
func (c *checker) checkRange(rng *ast.RangeStmt) {
	if !c.isMapExpr(rng.X) {
		return
	}
	if out := findOutputCall(rng.Body); out != "" {
		c.report(rng.Pos(), "map iteration feeds ordered output (%s): iteration order is random (docs/DETERMINISM.md); range over sorted keys instead", out)
	}
}

// isMapExpr reports whether the expression is statically known to be a
// map: a map literal, make(map[...]...), or an identifier whose in-file
// declaration is one of those or carries an explicit map type.
func (c *checker) isMapExpr(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.CompositeLit:
		_, ok := x.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
			_, ok := x.Args[0].(*ast.MapType)
			return ok
		}
	case *ast.Ident:
		return identIsMap(x)
	}
	return false
}

// identIsMap resolves an identifier through its declaration (the
// parser's in-file object resolution) looking for a map type.
func identIsMap(id *ast.Ident) bool {
	if id.Obj == nil {
		return false
	}
	switch decl := id.Obj.Decl.(type) {
	case *ast.AssignStmt:
		for i, lhs := range decl.Lhs {
			l, ok := lhs.(*ast.Ident)
			if !ok || l.Name != id.Name || i >= len(decl.Rhs) && len(decl.Rhs) != 1 {
				continue
			}
			rhs := decl.Rhs[0]
			if len(decl.Rhs) == len(decl.Lhs) {
				rhs = decl.Rhs[i]
			}
			switch r := rhs.(type) {
			case *ast.CompositeLit:
				if _, ok := r.Type.(*ast.MapType); ok {
					return true
				}
			case *ast.CallExpr:
				if fn, ok := r.Fun.(*ast.Ident); ok && fn.Name == "make" && len(r.Args) > 0 {
					if _, ok := r.Args[0].(*ast.MapType); ok {
						return true
					}
				}
			}
		}
	case *ast.ValueSpec:
		if _, ok := decl.Type.(*ast.MapType); ok {
			return true
		}
	case *ast.Field:
		if _, ok := decl.Type.(*ast.MapType); ok {
			return true
		}
	}
	return false
}

// findOutputCall returns a description of the first output call in the
// body (fmt printing, or a Write*/print method call), or "".
func findOutputCall(body *ast.BlockStmt) string {
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
		if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil && id.Name == "fmt" {
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
