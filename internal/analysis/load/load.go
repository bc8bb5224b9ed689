// Package load type-checks Go packages from source for relacc-lint,
// standing in for golang.org/x/tools/go/packages in a build that must
// stay dependency-free (see internal/analysis).
//
// Module packages (anything under the module root) are parsed and
// type-checked from source; standard-library imports resolve through
// the stdlib's own source importer (go/importer "source"), which works
// offline against GOROOT/src. Cgo is disabled for the whole process so
// packages like net fall back to their pure-Go variants — fine for
// linting, which needs types, not a runnable build.
//
// Two layouts are supported:
//   - Module mode (Dir contains go.mod): import paths under the module
//     path map to subdirectories, patterns like ./... expand by
//     walking the tree (skipping testdata, vendor and hidden dirs).
//   - Testdata mode (no go.mod): any import path whose directory
//     exists under Dir is loaded from there — the GOPATH-style layout
//     analysistest uses, so fixture packages can fake real import
//     paths like repro/internal/chase.
package load

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
	"sort"
	"strings"
	"sync"
)

// Config tells Load where the code lives and what to include.
type Config struct {
	// Dir is the root directory: a module root (with go.mod) or a
	// testdata src root.
	Dir string
	// Tests includes each package's in-package _test.go files in the
	// analyzed (not the imported) variant, and adds external test
	// packages (package foo_test) as their own units, type-checked
	// against that variant as go test builds them.
	Tests bool
}

// Package is one type-checked unit handed to analyzers.
type Package struct {
	// Path is the import path ("repro/internal/chase"); external test
	// packages carry the source package's path plus "_test".
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems; analyzers still run
	// (on possibly partial information), the driver decides whether to
	// fail on them.
	TypeErrors []error
}

// Load type-checks the packages matching patterns. Patterns are
// directory-relative: "./..." (everything under Dir), "./x/..." or
// "./x" in module mode; bare import paths in testdata mode.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	ld, err := newLoader(cfg)
	if err != nil {
		return nil, err
	}
	dirs, err := ld.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		got, err := ld.analyze(dir)
		if err != nil {
			return nil, fmt.Errorf("load: %s: %w", dir, err)
		}
		pkgs = append(pkgs, got...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// cgoOff disables cgo process-wide before any go/build or srcimporter
// lookup runs, so cgo-using stdlib packages (net, os/user) resolve to
// their pure-Go fallbacks instead of demanding a C toolchain.
var cgoOff = sync.OnceFunc(func() { build.Default.CgoEnabled = false })

type loader struct {
	cfg        Config
	modulePath string // "" in testdata mode
	fset       *token.FileSet
	ctxt       *build.Context
	std        types.Importer

	mu       sync.Mutex
	imported map[string]*types.Package // pure (no test files) module packages
	loading  map[string]bool           // cycle guard
}

func newLoader(cfg Config) (*loader, error) {
	cgoOff()
	abs, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	cfg.Dir = abs
	fset := token.NewFileSet()
	ld := &loader{
		cfg:      cfg,
		fset:     fset,
		ctxt:     &build.Default,
		std:      importer.ForCompiler(fset, "source", nil),
		imported: make(map[string]*types.Package),
		loading:  make(map[string]bool),
	}
	if data, err := os.ReadFile(filepath.Join(cfg.Dir, "go.mod")); err == nil {
		ld.modulePath = modulePathOf(string(data))
		if ld.modulePath == "" {
			return nil, fmt.Errorf("load: %s/go.mod has no module directive", cfg.Dir)
		}
	}
	return ld, nil
}

// modulePathOf extracts the module path from go.mod contents.
func modulePathOf(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// pathFor maps a module directory to its import path.
func (ld *loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(ld.cfg.Dir, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if ld.modulePath == "" {
		return rel, nil // testdata mode: the relative path IS the import path
	}
	if rel == "." {
		return ld.modulePath, nil
	}
	return ld.modulePath + "/" + rel, nil
}

// dirFor maps an import path to its directory under the root, or ""
// when the path does not belong to this tree.
func (ld *loader) dirFor(path string) string {
	if ld.modulePath == "" {
		dir := filepath.Join(ld.cfg.Dir, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir
		}
		return ""
	}
	if path == ld.modulePath {
		return ld.cfg.Dir
	}
	if rest, ok := strings.CutPrefix(path, ld.modulePath+"/"); ok {
		return filepath.Join(ld.cfg.Dir, filepath.FromSlash(rest))
	}
	return ""
}

// expand resolves patterns to package directories.
func (ld *loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := ld.walk(ld.cfg.Dir, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			dir := ld.resolvePattern(root)
			if dir == "" {
				return nil, fmt.Errorf("load: pattern %q matches no directory", pat)
			}
			if err := ld.walk(dir, add); err != nil {
				return nil, err
			}
		default:
			dir := ld.resolvePattern(pat)
			if dir == "" {
				return nil, fmt.Errorf("load: pattern %q matches no directory", pat)
			}
			add(dir)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// resolvePattern maps one non-wildcard pattern (./x, an import path, or
// a directory) to a directory, or "".
func (ld *loader) resolvePattern(pat string) string {
	if strings.HasPrefix(pat, "./") || pat == "." {
		dir := filepath.Join(ld.cfg.Dir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir
		}
		return ""
	}
	return ld.dirFor(pat)
}

// walk visits every package directory under root, skipping testdata,
// vendor, and hidden or underscore-prefixed directories.
func (ld *loader) walk(root string, add func(string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			add(path)
		}
		return nil
	})
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// Import resolves one import path for go/types: module-tree packages
// from source (pure variant, cached), everything else through the
// stdlib source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "C" {
		return nil, fmt.Errorf("cgo is not supported by relacc-lint")
	}
	if dir := ld.dirFor(path); dir != "" {
		return ld.importSource(path, dir)
	}
	return ld.std.Import(path)
}

// importSource type-checks the pure (no test files) variant of one
// module package, for use as an import.
func (ld *loader) importSource(path, dir string) (*types.Package, error) {
	ld.mu.Lock()
	if pkg, ok := ld.imported[path]; ok {
		ld.mu.Unlock()
		return pkg, nil
	}
	if ld.loading[path] {
		ld.mu.Unlock()
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	ld.loading[path] = true
	ld.mu.Unlock()
	defer func() {
		ld.mu.Lock()
		delete(ld.loading, path)
		ld.mu.Unlock()
	}()

	pkg, err := ld.checkPure(path, dir, importerFunc(ld.Import))
	if err != nil {
		return nil, err
	}
	ld.mu.Lock()
	ld.imported[path] = pkg
	ld.mu.Unlock()
	return pkg, nil
}

// checkPure type-checks the non-test files of one module package,
// resolving its imports through imp; the first type error fails it.
func (ld *loader) checkPure(path, dir string, imp types.Importer) (*types.Package, error) {
	bp, err := ld.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := ld.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: imp}
	var firstErr error
	conf.Error = func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	pkg, _ := conf.Check(path, ld.fset, files, nil)
	if firstErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, firstErr)
	}
	return pkg, nil
}

// testImporter resolves the imports of path's external test package
// the way go test builds it. path itself resolves to variant, the
// package type-checked WITH its in-package _test.go files, so the
// export_test.go idiom works. Every module package that imports path,
// directly or transitively, is re-checked against variant, so the
// types that flow through it are the ones the test sees. All other
// imports are the shared pure variants.
func (ld *loader) testImporter(path string, variant *types.Package) types.Importer {
	pkgs := map[string]*types.Package{path: variant}
	reaches := map[string]bool{path: true}
	var reach func(p string) bool
	reach = func(p string) bool {
		if r, ok := reaches[p]; ok {
			return r
		}
		reaches[p] = false // cycle guard; Go forbids import cycles anyway
		dir := ld.dirFor(p)
		if dir == "" {
			return false
		}
		bp, err := ld.ctxt.ImportDir(dir, 0)
		if err != nil {
			return false
		}
		for _, imp := range bp.Imports {
			if reach(imp) {
				reaches[p] = true
				return true
			}
		}
		return false
	}
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkg, ok := pkgs[p]; ok {
			return pkg, nil
		}
		if !reach(p) {
			return ld.Import(p)
		}
		pkg, err := ld.checkPure(p, ld.dirFor(p), imp)
		if err != nil {
			return nil, err
		}
		pkgs[p] = pkg
		return pkg, nil
	}
	return imp
}

// analyze builds the analyzed variant(s) of one package directory: the
// package itself (with in-package test files when cfg.Tests), plus the
// external test package when one exists.
func (ld *loader) analyze(dir string) ([]*Package, error) {
	path, err := ld.pathFor(dir)
	if err != nil {
		return nil, err
	}
	bp, err := ld.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	names := bp.GoFiles
	if ld.cfg.Tests {
		names = append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...)
	}
	var out []*Package
	pkg, err := ld.check(path, dir, names, importerFunc(ld.Import))
	if err != nil {
		return nil, err
	}
	out = append(out, pkg)
	if ld.cfg.Tests && len(bp.XTestGoFiles) > 0 {
		xpkg, err := ld.check(path+"_test", dir, bp.XTestGoFiles, ld.testImporter(path, pkg.Types))
		if err != nil {
			return nil, err
		}
		out = append(out, xpkg)
	}
	return out, nil
}

// check parses and type-checks one file set as an analysis unit with
// full type information, resolving its imports through imp.
func (ld *loader) check(path, dir string, names []string, imp types.Importer) (*Package, error) {
	files, err := ld.parse(dir, names)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{Path: path, Fset: ld.fset, Files: files, Info: info}
	conf := types.Config{Importer: imp}
	conf.Error = func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) }
	tpkg, _ := conf.Check(path, ld.fset, files, info)
	pkg.Types = tpkg
	return pkg, nil
}

func (ld *loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
