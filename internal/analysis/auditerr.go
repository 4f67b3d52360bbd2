package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Auditerr enforces the replayability half of the paper's §5.2/§6
// contract: the retained ADI must be exactly reconstructible from the
// audit trail, so no error result from an audit-trail append or
// retained-ADI persistence call may be silently discarded. A dropped
// audit error is a decision the trail cannot replay.
type Auditerr struct {
	// AuditPackages are the module-relative package paths whose
	// functions' trailing error results must never be discarded.
	AuditPackages []string
}

// DefaultAuditPackages are the trail and retained-ADI packages of this
// module.
var DefaultAuditPackages = []string{"internal/audit", "internal/adi"}

func (*Auditerr) Name() string { return "auditerr" }
func (*Auditerr) Doc() string {
	return "no discarded error result from audit-trail appends or retained-ADI persistence"
}

// Applies runs module-wide: a discard is a bug wherever it happens.
func (*Auditerr) Applies(string) bool { return true }

func (a *Auditerr) Run(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				a.checkAssign(pass, n)
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					a.checkDropped(pass, call, "expression statement")
				}
			case *ast.DeferStmt:
				a.checkDropped(pass, n.Call, "defer")
			case *ast.GoStmt:
				a.checkDropped(pass, n.Call, "go statement")
			}
			return true
		})
	}
}

// checkAssign flags blank-identifier discards of guarded results:
// `x, _ = pkg.F(...)` and `_ = pkg.F(...)`.
func (a *Auditerr) checkAssign(pass *Pass, as *ast.AssignStmt) {
	// Only the single-call multi-value form can discard a trailing
	// result positionally; handle `x, _ := f()` and `_ := f()`.
	if len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			fn := a.guardedCallee(pass, call)
			if fn == nil {
				return
			}
			results := fn.Type().(*types.Signature).Results()
			if results.Len() == 0 || results.Len() > len(as.Lhs) {
				return
			}
			last := as.Lhs[results.Len()-1]
			if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(as.Pos(),
					"error result of %s is discarded with _; %s", calleeName(fn), auditerrWhy)
			}
			return
		}
	}
	// Parallel assignment form: `_, _ = f(), g()`.
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		fn := a.guardedCallee(pass, call)
		if fn == nil {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(as.Pos(),
				"error result of %s is discarded with _; %s", calleeName(fn), auditerrWhy)
		}
	}
}

// checkDropped flags calls whose results (including a guarded error)
// are dropped entirely.
func (a *Auditerr) checkDropped(pass *Pass, call *ast.CallExpr, how string) {
	fn := a.guardedCallee(pass, call)
	if fn == nil {
		return
	}
	if fn.Type().(*types.Signature).Results().Len() == 0 {
		return
	}
	pass.Reportf(call.Pos(),
		"error result of %s is dropped (%s); %s", calleeName(fn), how, auditerrWhy)
}

// guardedCallee resolves a call to a guarded function: one defined in
// an audit/ADI package whose final result is an error.
func (a *Auditerr) guardedCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if !a.inGuardedPackage(fn.Pkg().Path()) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	if !isErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return nil
	}
	return fn
}

// inGuardedPackage matches the callee's package path against the
// guarded set by module-relative suffix, so fixtures under any module
// path exercise the same rules.
func (a *Auditerr) inGuardedPackage(path string) bool {
	pkgs := a.AuditPackages
	if pkgs == nil {
		pkgs = DefaultAuditPackages
	}
	for _, p := range pkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// auditerrWhy ends every auditerr finding.
const auditerrWhy = "a dropped audit/ADI error breaks trail replayability — handle it or count it"

// calleeName renders pkg.Func or pkg.Type.Method for messages.
func calleeName(fn *types.Func) string {
	pkg := fn.Pkg().Name()
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}
