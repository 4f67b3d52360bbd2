package analysis

import (
	"go/ast"
)

// Clockuse protects trail-replay determinism: the packages that feed
// the retained ADI and the audit trail's event ordering must take time
// from the injected clock (pdp.Config.Clock / core.WithClock), never
// from a direct time.Now() call. A direct call makes retained records
// and replayed records disagree, so the §6 "exactly reconstructible
// from the audit trail" property silently degrades to "approximately".
//
// Referencing time.Now as a *value* (`clock := time.Now`) is allowed —
// that is the injection default, which callers can override; only the
// direct call is flagged.
type Clockuse struct {
	// Packages are the module-relative decision-path package paths.
	Packages []string
}

// DefaultClockusePackages are the packages whose outputs land in the
// retained ADI, the audit trail, or the decision event stream, and the
// reference model, whose schedules a checker replays.
var DefaultClockusePackages = []string{
	"internal/pdp", "internal/core", "internal/adi", "internal/audit", "internal/inspect", "internal/refmodel",
}

func (*Clockuse) Name() string { return "clockuse" }
func (*Clockuse) Doc() string {
	return "decision-path packages must use the injected clock, not call time.Now() directly"
}

func (c *Clockuse) Applies(rel string) bool { return appliesTo(c.Packages, rel) }

func (c *Clockuse) Run(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.CalleeFunc(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "time" && fn.Name() == "Now" {
				pass.Reportf(call.Pos(),
					"direct time.Now() call in a decision-path package; take time from the injected clock so trail replay stays deterministic")
			}
			return true
		})
	}
}
