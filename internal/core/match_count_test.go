package core

import (
	"fmt"
	"testing"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/rbac"
)

// TestStepOneTriesOneProgram (experiment E7): with 128 policies whose
// contexts start with 128 different component types — one policy per
// kind of process, the realistic case — §4.2 step 1 tries one program
// for a request at every context depth, not all 128, and that program
// matches.
func TestStepOneTriesOneProgram(t *testing.T) {
	const policies = 128
	for _, depth := range []int{1, 2, 4, 8} {
		ps := make([]Policy, policies)
		for i := range ps {
			comps := make([]bctx.Component, depth)
			for d := range comps {
				comps[d] = bctx.Component{Type: fmt.Sprintf("L%d", d), Value: bctx.AnyInstance}
			}
			comps[depth-1].Value = bctx.PerInstance
			if i > 0 {
				comps[0].Type = fmt.Sprintf("P%d", i)
			}
			ps[i] = Policy{
				Context: bctx.MustName(comps...),
				MMER:    []MMERRule{{Roles: []rbac.RoleName{"A", "B"}, Cardinality: 2}},
			}
		}
		e, err := NewEngine(adi.NewStore(), ps)
		if err != nil {
			t.Fatal(err)
		}
		comps := make([]bctx.Component, depth)
		for d := range comps {
			comps[d] = bctx.Component{Type: fmt.Sprintf("L%d", d), Value: fmt.Sprintf("v%d", d)}
		}
		req := Request{User: "u", Roles: []rbac.RoleName{"A"}, Operation: "op", Target: "t", Context: bctx.MustName(comps...)}
		if tried := len(e.candidates[req.Context.At(0).Type]); tried != 1 {
			t.Errorf("depth %d: step 1 tries %d of %d programs, want 1", depth, tried, len(e.programs))
		}
		if matched := len(e.match(req.Context, nil)); matched != 1 {
			t.Errorf("depth %d: %d policies match, want 1", depth, matched)
		}
		dec, err := e.Evaluate(req)
		if err != nil || dec.Effect != Grant || dec.MatchedPolicies != 1 {
			t.Errorf("depth %d: Evaluate = %+v, %v; want a grant under 1 policy", depth, dec, err)
		}
	}
}
