package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// modulePath is the import path of the repository's module.
const modulePath = "strandweaver"

// packageDirs lists, relative to the module root, every directory
// under internal/ and cmd/ that holds a package, in lexical order: the
// package set strandvet checks by default.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			names, err := goFiles(path)
			if err != nil {
				return err
			}
			if len(names) > 0 {
				rel, _ := filepath.Rel(root, path)
				dirs = append(dirs, rel)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
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

// loader type-checks the module's packages from source, each once,
// and the standard library through the source importer.
type loader struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*checkedPkg
}

// checkedPkg is a type-checked package: its non-test files and what
// the type checker recorded of them.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// newLoader returns a loader of the module whose root is root.
func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root: root, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*checkedPkg),
	}
}

func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

func (ld *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, modulePath)
	if !ok || rel != "" && rel[0] != '/' {
		return ld.std.ImportFrom(path, dir, mode)
	}
	p, err := ld.load("." + rel)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load type-checks the package in dir, a directory relative to the
// module root, once.
func (ld *loader) load(dir string) (*checkedPkg, error) {
	if !filepath.IsLocal(dir) {
		return nil, fmt.Errorf("%s: not a directory inside the module root", dir)
	}
	path := modulePath
	if rel := filepath.ToSlash(filepath.Clean(dir)); rel != "." {
		path += "/" + rel
	}
	if p := ld.pkgs[path]; p != nil {
		return p, nil
	}
	files, err := ld.parseDir(filepath.Join(ld.root, dir))
	if err != nil {
		return nil, err
	}
	p, err := ld.typeCheck(path, files)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of dir that the build includes.
func (ld *loader) parseDir(dir string) ([]*ast.File, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, len(names))
	for i, name := range names {
		if files[i], err = parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// typeCheck type-checks files as the package whose import path is
// path.
func (ld *loader) typeCheck(path string, files []*ast.File) (*checkedPkg, error) {
	p := &checkedPkg{files: files, info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	var err error
	p.pkg, err = (&types.Config{Importer: ld}).Check(path, ld.fset, files, p.info)
	return p, err
}
