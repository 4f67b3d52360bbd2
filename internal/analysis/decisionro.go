package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Decisionro protects the engine's read-only decisions: the engine hands
// one *core.Decision to many callers (every plain grant with the same
// counts is one shared object, and so is every repeated denial of a
// bound instance, with its *core.Denial), so a write through one changes
// the decision every other caller holds, and every later decision like
// it. Outside internal/core it flags an assignment, an op-assignment,
// ++ or --, or an & that reaches a field through a *core.Decision —
// pdp.Decision.MSoD included — or a *core.Denial — a Decision's Denial
// kept in a variable of its own included — or writes the whole object
// through one. A caller that wants a changed decision or denial copies
// it first (d := *dec). Setting a pointer to another one is not a write
// through it, and is not flagged.
type Decisionro struct{}

// decisionPackage is the module-relative path of the package that owns
// Decision and Denial, the one package that may write them.
const decisionPackage = "internal/core"

// readOnlyTypes are the types of decisionPackage a write must not reach
// through a pointer to.
var readOnlyTypes = []string{"Decision", "Denial"}

func (*Decisionro) Name() string { return "decisionro" }
func (*Decisionro) Doc() string {
	return "outside internal/core, nothing may write through a *core.Decision or a *core.Denial: the engine shares read-only decisions"
}

func (*Decisionro) Applies(rel string) bool { return !appliesTo([]string{decisionPackage}, rel) }

func (d *Decisionro) Run(pass *Pass) {
	module := strings.TrimSuffix(strings.TrimSuffix(pass.Pkg.Path, pass.Pkg.RelPath), "/")
	corePath := module + "/" + decisionPackage
	check := func(e ast.Expr, what string) {
		if typ := through(pass, e, corePath); typ != "" {
			pass.Reportf(e.Pos(),
				"%s through a *core.%s outside internal/core; the engine hands the same read-only decision to many callers — copy it first", what, typ)
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

// through names the read-only type the addressable expression e is
// reached through the pointer to, the one nearest the root variable
// when there are two (pd.MSoD.Denial.Rule is reached through a
// *core.Decision), or "" when there is none: some selector or
// dereference on e's path from the root variable is applied to a
// *core.Decision or a *core.Denial.
func through(pass *Pass, e ast.Expr, corePath string) string {
	found := ""
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if typ := readOnlyPointer(pass.TypeOf(x.X), corePath); typ != "" {
				found = typ
			}
			e = x.X
		case *ast.StarExpr:
			if typ := readOnlyPointer(pass.TypeOf(x.X), corePath); typ != "" {
				found = typ
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return found
		}
	}
}

// readOnlyPointer names the type t points to when it is one of
// readOnlyTypes, and is "" otherwise.
func readOnlyPointer(t types.Type, corePath string) string {
	p, ok := t.(*types.Pointer)
	if !ok {
		return ""
	}
	for _, name := range readOnlyTypes {
		if isNamed(types.Unalias(p.Elem()), corePath, name) {
			return name
		}
	}
	return ""
}
