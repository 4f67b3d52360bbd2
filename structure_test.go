package msod_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"msod/internal/analysis"
)

// bodyReaders are the only functions of the HTTP-serving packages
// allowed to touch an incoming request's Body, each with the reason.
// Everything else takes its bytes from server.ReadBody, which bounds
// them (1 MiB, 413 past it), sizes one slice and leaves the caller the
// whole body — so that bytes after the JSON value are seen and refused.
var bodyReaders = map[string]string{
	"internal/server.ReadBody":                    "the one bounded read",
	"internal/server.Server.handleHandoffImport":  "a user-scoped snapshot is as large as the users' history; deliberately unbounded, behind -handoff",
	"internal/server.Server.handleHandoffRelease": "a user list is as long as the move; deliberately unbounded, behind -handoff",
}

// TestRequestBodiesAreReadInOnePlace fails when non-test code of the
// shard or the gateway reads the Body of an *http.Request outside
// bodyReaders: a handler with its own json.NewDecoder(r.Body) has no
// size cap and ignores trailing bytes, and it is how a second advice
// endpoint once missed both fixes the shard's got.
func TestRequestBodiesAreReadInOnePlace(t *testing.T) {
	found := map[string]bool{}
	for _, dir := range []string{"internal/server", "internal/cluster"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					name := dir + "." + funcName(fn)
					// Every *http.Request parameter in scope: the
					// function's own and those of the literals inside it.
					requests := map[string]bool{}
					ast.Inspect(fn, func(n ast.Node) bool {
						if ft, ok := n.(*ast.FuncType); ok {
							for _, field := range ft.Params.List {
								if isHTTPRequestPtr(field.Type) {
									for _, id := range field.Names {
										requests[id.Name] = true
									}
								}
							}
						}
						return true
					})
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						sel, ok := n.(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "Body" {
							return true
						}
						if id, ok := sel.X.(*ast.Ident); ok && requests[id.Name] {
							found[name] = true
							if _, allowed := bodyReaders[name]; !allowed {
								t.Errorf("%s: %s reads %s.Body; request bodies are read by server.ReadBody (or the function needs a reasoned entry in bodyReaders)",
									fset.Position(sel.Pos()), name, id.Name)
							}
						}
						return true
					})
				}
			}
		}
	}
	for name := range bodyReaders {
		if !found[name] {
			t.Errorf("bodyReaders lists %s, which no longer reads a request body; drop the entry", name)
		}
	}
}

// funcName is "Recv.Method" for a method, the bare name otherwise.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

func isHTTPRequestPtr(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Request" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "http"
}

// storeMutators are the only places allowed to change a retained-ADI
// store, each with the reason: to call a method named Append,
// AppendCtx, PurgeContext, PurgeUser or PurgeBefore that internal/adi
// declares (on a store or on Recorder), or adi.Apply. A function is
// "dir.Type.Method"; a directory alone allows its whole package. Every
// other change is an adi.Op through pdp.PDP.Apply, which takes the
// commit lock and then the engine lock, and publishes the op.
var storeMutators = map[string]string{
	"internal/adi":                "the stores themselves, and adi.Apply, which maps an op onto one",
	"internal/core.Engine.decide": "the grant commit: §4.2 steps 5.iv and 7, under the engine lock",
	"internal/core.Engine.Apply":  "the engine's one out-of-band apply, under the engine lock",
}

// TestStoreMutatedOnlyThroughOneEntry fails when non-test code outside
// storeMutators changes a retained-ADI store, and when an entry no
// longer does: a seventh entry point with its own lock discipline, its
// own event or none, cannot slip in beside the one.
func TestStoreMutatedOnlyThroughOneEntry(t *testing.T) {
	loader, err := analysis.NewLoader(".", "msod")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	mutators := map[string]bool{"Append": true, "AppendCtx": true, "PurgeContext": true, "PurgeUser": true, "PurgeBefore": true, "Apply": true}
	found := map[string]bool{}
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg.RelPath, "benchmark") {
			continue // a module of its own
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := pkg.RelPath + "." + funcName(fn)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					f, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok || f.Pkg() == nil || f.Pkg().Path() != "msod/internal/adi" || !mutators[f.Name()] {
						return true
					}
					entry := name
					if _, ok := storeMutators[entry]; !ok {
						entry = pkg.RelPath
					}
					if _, ok := storeMutators[entry]; !ok {
						t.Errorf("%s: %s calls %s; a change to the retained ADI is an adi.Op through pdp.PDP.Apply, or the function needs an entry in storeMutators saying why not",
							loader.Fset().Position(sel.Pos()), name, f.FullName())
						return true
					}
					found[entry] = true
					return true
				})
			}
		}
	}
	for name := range storeMutators {
		if !found[name] {
			t.Errorf("storeMutators lists %s, which no longer changes a store; drop the entry", name)
		}
	}
}

// TestExperimentsNameLiveTests holds EXPERIMENTS.md to the code. Every
// row of its claim table names its checker in the "Checked by" column:
// at most one test, which must exist in the module; failing that, the
// BENCHMARK.json workload and metric that measure the claim, or the
// ROADMAP item it waits for. The `go test -run` line above the table
// runs exactly the tests the table names.
func TestExperimentsNameLiveTests(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	type named []struct{ Name string }
	var bench struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, list := range []named{bench.Workloads, bench.EndToEnd, bench.PerLayer} {
		for _, x := range list {
			measured[x.Name] = true
		}
	}
	defined := moduleTests(t)

	ticked := regexp.MustCompile("`([^`]+)`")
	runLine := regexp.MustCompile(`go test -run '\^\(([^)]*)\)\$'`)
	tested, runs := map[string]bool{}, map[string]bool{}
	checkedBy, rows := -1, 0
	for _, line := range strings.Split(string(doc), "\n") {
		if m := runLine.FindStringSubmatch(line); m != nil {
			for _, name := range strings.Split(m[1], "|") {
				runs[name] = true
			}
		}
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if checkedBy < 0 {
			checkedBy = slices.Index(cells, "Checked by")
			continue
		}
		if !strings.HasPrefix(cells[0], "E") {
			continue // the separator row
		}
		rows++
		cell := cells[checkedBy]
		tests := 0
		for _, m := range ticked.FindAllStringSubmatch(cell, -1) {
			name := m[1]
			switch {
			case strings.HasPrefix(name, "Test"):
				tests++
				tested[name] = true
				if !defined[name] {
					t.Errorf("%s names %s, which no test file in the module defines", cells[0], name)
				}
			case !measured[name]:
				t.Errorf("%s names %q, which is neither a test nor a BENCHMARK.json workload or metric", cells[0], name)
			}
		}
		if tests > 1 || (tests == 0 && !strings.Contains(cell, "`") && !strings.Contains(cell, "ROADMAP")) {
			t.Errorf("%s is checked by %q; name one test, the workload metric that measures it, or the ROADMAP item it waits for", cells[0], cell)
		}
	}
	if rows == 0 {
		t.Fatal("EXPERIMENTS.md has no claim table with a \"Checked by\" column")
	}
	for name := range tested {
		if !runs[name] {
			t.Errorf("the claim table names %s, which the go test -run line does not run", name)
		}
	}
	for name := range runs {
		if !tested[name] {
			t.Errorf("the go test -run line runs %s, which the claim table does not name", name)
		}
	}
}

// moduleTests returns the names of the top-level Test functions in the
// module's test files (benchmark/ is a module of its own).
func moduleTests(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || p == "benchmark" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				out[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
