package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// goroutineOwners are the only functions in this package allowed to
// contain a `go` statement, each with what stops and waits for what it
// starts. A request fan-out is not on the list by design: it goes
// through scatter, which owns the shard set's goroutines, the deadline
// and the error classification once.
var goroutineOwners = map[string]string{
	"scatter":              "one goroutine per shard; scatter waits for all of them before returning",
	"Gateway.handleEvents": "one /v1/events tailer per shard; each ends with the client's request context",
	"Checker.Start":        "the periodic prober; Checker.Stop ends it",
	"Gateway.startHandoff": "the one handoff runner; Gateway.Close cancels and waits for it",
}

// TestGoStatementsOnlyInOwners fails when a `go` statement appears in
// non-test code outside goroutineOwners, so a seventh hand-rolled
// fan-out loop — with its own shard set, deadline and fail-closed rule
// to drift — cannot slip in beside scatter.
func TestGoStatementsOnlyInOwners(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						found[name] = true
						if _, allowed := goroutineOwners[name]; !allowed {
							t.Errorf("%s: `go` statement in %s; per-shard request fan-outs go through scatter (see scatter.go), and any other goroutine needs an owner listed in goroutineOwners",
								fset.Position(g.Pos()), name)
						}
					}
					return true
				})
			}
		}
	}
	for name := range goroutineOwners {
		if !found[name] {
			t.Errorf("goroutineOwners lists %s, which no longer contains a `go` statement; drop the entry", name)
		}
	}
}

// funcName is a declaration's name, "Type.Method" for a method, as
// TestGoStatementsOnlyInOwners spells it.
func funcName(fn *ast.FuncDecl) string {
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return name
}

// requestBuilders are the only functions in this package allowed to
// build an HTTP request or a shard client themselves, each with why its
// requests need not go through a shard's server.Client. Everything else
// reaches a shard through the client Gateway.client returns — which is
// what carries the shard's pending context-instance closes (closes.go):
// a request built around it could read a retained ADI in which an
// instance the gateway has already acknowledged as ended is still open.
var requestBuilders = map[string]string{
	"Gateway.newShardClient": "builds the server.Client every other shard request goes through",
	"Gateway.scrapeShard":    "GET /v1/metrics: reads counters, no retained ADI",
}

// TestShardRequestsOnlyThroughClient fails when non-test code outside
// requestBuilders calls one of net/http's request constructors or
// senders, or server.NewClient.
func TestShardRequestsOnlyThroughClient(t *testing.T) {
	builders := map[string]map[string]bool{
		"http":   {"NewRequest": true, "NewRequestWithContext": true, "Get": true, "Head": true, "Post": true, "PostForm": true},
		"server": {"NewClient": true},
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := funcName(fn)
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if pkg, ok := sel.X.(*ast.Ident); ok && builders[pkg.Name][sel.Sel.Name] {
						found[name] = true
						if _, allowed := requestBuilders[name]; !allowed {
							t.Errorf("%s: %s.%s in %s; a request to a shard goes through its server.Client (Gateway.client), which carries the shard's pending closes — or the function needs an entry in requestBuilders saying why not",
								fset.Position(call.Pos()), pkg.Name, sel.Sel.Name, name)
						}
					}
					return true
				})
			}
		}
	}
	for name := range requestBuilders {
		if !found[name] {
			t.Errorf("requestBuilders lists %s, which no longer builds a request; drop the entry", name)
		}
	}
}

// deadlineHelper is the one function in route.go allowed to make a
// deadline: the routed decisions' shared one.
const deadlineHelper = "Gateway.decisionContext"

// TestRoutedDeadlineOnlyInItsHelper fails when route.go calls
// context.WithTimeout or context.WithDeadline outside deadlineHelper.
// A routed decision shares the gateway's current deadline; one made per
// decision costs 8 allocations and a runtime timer each (5 the
// gateway's, 3 the Transport's: see TestRouteDecisionAllocs).
func TestRoutedDeadlineOnlyInItsHelper(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "route.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		name := funcName(fn)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "context" && (sel.Sel.Name == "WithTimeout" || sel.Sel.Name == "WithDeadline") {
				if name != deadlineHelper {
					t.Errorf("%s: context.%s in %s; a routed decision's shard calls share the deadline %s returns",
						fset.Position(call.Pos()), sel.Sel.Name, name, deadlineHelper)
				} else {
					found = true
				}
			}
			return true
		})
	}
	if !found {
		t.Errorf("%s no longer makes the shared deadline in route.go; move the check with it", deadlineHelper)
	}
}
