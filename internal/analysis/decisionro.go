package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Decisionro protects the engine's read-only decisions: the engine hands
// one *core.Decision to many callers (every plain grant with the same
// counts is one shared object), so a write through one changes the
// decision every other caller holds, and every later grant of those
// counts. Outside internal/core it flags an assignment, an
// op-assignment, ++ or --, or an & that reaches a field through a
// *core.Decision — pdp.Decision.MSoD included — or writes the whole
// object through one. A caller that wants a changed decision copies it
// first (d := *dec). Setting a pointer to another decision is not a
// write through it, and is not flagged.
type Decisionro struct{}

// decisionPackage is the module-relative path of the package that owns
// Decision, the one package that may write it.
const decisionPackage = "internal/core"

func (*Decisionro) Name() string { return "decisionro" }
func (*Decisionro) Doc() string {
	return "outside internal/core, nothing may write through a *core.Decision: the engine shares read-only decisions"
}

func (*Decisionro) Applies(rel string) bool { return !appliesTo([]string{decisionPackage}, rel) }

func (d *Decisionro) Run(pass *Pass) {
	module := strings.TrimSuffix(strings.TrimSuffix(pass.Pkg.Path, pass.Pkg.RelPath), "/")
	corePath := module + "/" + decisionPackage
	check := func(e ast.Expr, what string) {
		if through(pass, e, corePath) {
			pass.Reportf(e.Pos(),
				"%s through a *core.Decision outside internal/core; the engine hands the same read-only decision to many callers — copy it first", what)
		}
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				what := "assignment"
				if n.Tok != token.ASSIGN {
					what = n.Tok.String() + " assignment"
				}
				for _, lhs := range n.Lhs {
					check(lhs, what)
				}
			case *ast.IncDecStmt:
				check(n.X, n.Tok.String())
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil {
							check(e, "range assignment")
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					check(n.X, "& of a field")
				}
			}
			return true
		})
	}
}

// through reports whether the addressable expression e is reached
// through a *core.Decision: some selector, index or dereference on its
// path from the root variable is applied to one.
func through(pass *Pass, e ast.Expr, corePath string) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if isDecisionPointer(pass.TypeOf(x.X), corePath) {
				return true
			}
			e = x.X
		case *ast.StarExpr:
			if isDecisionPointer(pass.TypeOf(x.X), corePath) {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// isDecisionPointer reports whether t is *core.Decision.
func isDecisionPointer(t types.Type, corePath string) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNamed(types.Unalias(p.Elem()), corePath, "Decision")
}
