// Package analysis is msodvet's engine: a stdlib-only static-analysis
// framework (go/parser + go/ast + go/types with the source importer —
// the module has no external dependencies, so no x/tools) plus the
// MSoD-specific analyzers that pin the project's fail-closed and
// determinism invariants down at compile time. See docs/ANALYZERS.md
// for the invariant catalogue and the //msod:ignore suppression
// contract.
package analysis

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
)

// Package is one loaded, type-checked package of the module under
// analysis.
type Package struct {
	// Path is the full import path (module path + "/" + RelPath).
	Path string
	// RelPath is the directory relative to the module root ("" for the
	// root package itself). Analyzers scope themselves by RelPath so
	// test fixtures with a different module path exercise the same
	// scoping.
	RelPath string
	// Dir is the absolute directory.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info carry the type-checker's results.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks every package under a module root. It
// resolves module-internal imports itself (sharing one token.FileSet so
// positions are consistent) and delegates everything else — the
// standard library — to the source importer.
type Loader struct {
	root    string
	module  string
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]string // import path -> absolute dir
	checked map[string]*Package
	loading map[string]bool // import cycle guard
}

// NewLoader scans the module rooted at root (the directory holding
// go.mod) whose module path is modulePath. Directories named testdata,
// hidden directories, and _test.go files are skipped, exactly like the
// go tool's package walk.
func NewLoader(root, modulePath string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		root:    abs,
		module:  modulePath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		dirs:    make(map[string]string),
		checked: make(map[string]*Package),
		loading: make(map[string]bool),
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// Fset returns the shared file set (for position rendering).
func (l *Loader) Fset() *token.FileSet { return l.fset }

// scan indexes every directory containing non-test Go files.
func (l *Loader) scan() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		imp := l.module
		if rel != "." {
			imp = l.module + "/" + filepath.ToSlash(rel)
		}
		l.dirs[imp] = path
		return nil
	})
}

// Paths returns every module package import path, sorted.
func (l *Loader) Paths() []string {
	out := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// LoadAll type-checks every package in the module, returning them
// sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var out []*Package
	for _, p := range l.Paths() {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// Import implements types.Importer over the loader, so module-internal
// dependencies type-check through the same machinery (and file set) as
// the packages under analysis.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module package (memoised).
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: package %q is not in the module", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Only what the default build compiles: a file excluded by a
		// build constraint (internal/race has one per side of the race
		// tag) would redeclare its twin's names.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	rel := ""
	if path != l.module {
		rel = strings.TrimPrefix(path, l.module+"/")
	}
	pkg := &Package{Path: path, RelPath: rel, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.checked[path] = pkg
	return pkg, nil
}
