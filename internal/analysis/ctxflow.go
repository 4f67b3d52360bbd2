package analysis

import (
	"go/ast"
	"go/types"
)

// Ctxflow protects cancellation propagation on the request path: a
// function that already has a caller's context in scope — a
// context.Context parameter, or an *http.Request whose Context()
// carries it — must not mint a fresh root with context.Background() or
// context.TODO(). A detached context ignores the caller's deadline and
// cancellation, so a client that has long since hung up keeps burning
// decision-path work, and graceful shutdown can no longer drain those
// calls. Root contexts belong only in main, tests, and true
// lifecycle roots (functions with no inbound context), which this
// analyzer leaves alone.
type Ctxflow struct {
	// Packages are the module-relative request-path package paths.
	Packages []string
}

// DefaultCtxflowPackages are the packages whose functions sit on the
// request path: every call under them is (transitively) serving a
// client request that can be cancelled or time out.
var DefaultCtxflowPackages = []string{
	"internal/server", "internal/cluster", "internal/pdp",
}

func (*Ctxflow) Name() string { return "ctxflow" }
func (*Ctxflow) Doc() string {
	return "request-path functions with a caller context in scope must not mint context.Background()/TODO()"
}

func (c *Ctxflow) Applies(rel string) bool { return appliesTo(c.Packages, rel) }

func (c *Ctxflow) Run(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c.walk(pass, fn.Body, hasCallerCtx(pass, fn.Type))
		}
	}
}

// walk inspects a function body. ctxInScope records whether this
// function (or an enclosing one — closures inherit their environment)
// received a caller context. Nested function literals re-evaluate: a
// literal with its own context parameter is covered regardless of the
// environment.
func (c *Ctxflow) walk(pass *Pass, body ast.Node, ctxInScope bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.walk(pass, n.Body, ctxInScope || hasCallerCtx(pass, n.Type))
			return false // the recursion owns the subtree
		case *ast.CallExpr:
			if !ctxInScope {
				return true
			}
			fn := pass.CalleeFunc(n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				pass.Reportf(n.Pos(),
					"context.%s() in a request-path function that already has a caller context in scope; derive from it so cancellation and deadlines propagate",
					fn.Name())
			}
		}
		return true
	})
}

// hasCallerCtx reports whether the function signature receives a
// caller's context: a context.Context parameter, or an *http.Request
// (whose Context method exposes the server's per-request context).
func hasCallerCtx(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isNamed(t, "context", "Context") {
			return true
		}
		if p, ok := t.(*types.Pointer); ok && isNamed(p.Elem(), "net/http", "Request") {
			return true
		}
	}
	return false
}

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
