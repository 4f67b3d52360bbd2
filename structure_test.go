package msod_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
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
// shard, the replica or the gateway reads the Body of an *http.Request
// outside bodyReaders: a handler with its own json.NewDecoder(r.Body)
// has no size cap and ignores trailing bytes, and it is how the
// replica's advice endpoint missed both fixes the shard's got.
func TestRequestBodiesAreReadInOnePlace(t *testing.T) {
	found := map[string]bool{}
	for _, dir := range []string{"internal/server", "internal/replica", "internal/cluster"} {
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
