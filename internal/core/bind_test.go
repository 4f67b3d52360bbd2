package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/refmodel"
)

// match is step 1 whole, as an evaluation runs it in two parts:
// selectPolicies before the engine lock, and bind under it for each
// mixed program.
func (e *Engine) match(inst bctx.Name, out []matched) []matched {
	out = e.selectPolicies(inst, out)
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range out {
		if out[i].names != nil {
			out[i].bound = e.bind(out[i].program, inst).name
		}
	}
	return out
}

// boundRules is an Explainer that keeps the bound instance of every
// rule it is handed.
type boundRules []bctx.Name

func (b *boundRules) Rule(r RuleEval) { *b = append(*b, r.Bound) }

// TestCollidingBindingsAreNeverStale: with the names table's hash
// narrowed so that every binding of a program takes the same slot,
// requests alternate between three bank periods and three tax processes
// under mixed contexts ("Branch=*, Period=!" with a last step, and
// "TaxOffice=*, taxRefundProcess=!" with a first and a last step), so
// nearly every request finds another instance's name in the slot. A
// stale name reused would judge the request against another period's
// history: a false grant or a false denial. Every decision must equal
// the reference model's, the store must retain what the model does,
// and every bound name the decision carries — its denial's, Activated,
// Closed and each explained rule's — must be what bctx.MatchBind binds.
// The slot must hold the last request's binding afterwards.
func TestCollidingBindingsAreNeverStale(t *testing.T) {
	set := &policy.MSoDPolicySet{Policies: []policy.MSoDPolicy{
		{
			BusinessContext: "Branch=*, Period=!",
			LastStep:        &policy.Step{Operation: "CommitAudit", TargetURI: "audit"},
			MMER:            []policy.MMER{{ForbiddenCardinality: 2, Roles: []policy.RoleRef{{Value: "Teller"}, {Value: "Auditor"}}}},
		},
		{
			BusinessContext: "TaxOffice=*, taxRefundProcess=!",
			FirstStep:       &policy.Step{Operation: "prepare", TargetURI: "check"},
			LastStep:        &policy.Step{Operation: "confirm", TargetURI: "check"},
			MMEP: []policy.MMEP{
				{ForbiddenCardinality: 2, Privileges: []policy.PrivilegeRef{{Operation: "prepare", Target: "check"}, {Operation: "confirm", Target: "check"}}},
				{ForbiddenCardinality: 3, Privileges: []policy.PrivilegeRef{{Operation: "approve", Target: "check"}, {Operation: "approve", Target: "check"}, {Operation: "combine", Target: "check"}}},
			},
		},
	}}
	policies, err := Compile(set)
	if err != nil {
		t.Fatal(err)
	}
	model, err := refmodel.New(set)
	if err != nil {
		t.Fatal(err)
	}
	now := diffEpoch
	store := adi.NewStore()
	e, err := NewEngine(store, policies, WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.programs {
		if e.programs[i].names == nil {
			t.Fatalf("policy %q has no names table", e.programs[i].context)
		}
	}
	e.bindMask = 0

	r := rand.New(rand.NewSource(9))
	users := []rbac.UserID{"u0", "u1", "u2", "u3"}
	bank := []struct {
		role   rbac.RoleName
		op     rbac.Operation
		target rbac.Object
	}{
		{"Teller", "HandleCash", "till"}, {"Teller", "HandleCash", "till"},
		{"Auditor", "Audit", "ledger"}, {"Auditor", "CommitAudit", "audit"},
	}
	tax := []rbac.Operation{"prepare", "approve", "approve", "combine", "confirm"}
	var effects [2]int
	var closed, activated int
	for step := range 1000 {
		now = now.Add(time.Second)
		var req Request
		inst := fmt.Sprint(r.Intn(3))
		if r.Intn(2) == 0 {
			b := bank[r.Intn(len(bank))]
			req = Request{User: users[r.Intn(len(users))], Roles: []rbac.RoleName{b.role}, Operation: b.op, Target: b.target,
				Context: bctx.MustParse(fmt.Sprintf("Branch=b%d, Period=p%s", r.Intn(2), inst))}
		} else {
			req = Request{User: users[r.Intn(len(users))], Roles: []rbac.RoleName{"Clerk"}, Operation: tax[r.Intn(len(tax))], Target: "check",
				Context: bctx.MustParse(fmt.Sprintf("TaxOffice=o%d, taxRefundProcess=t%s", r.Intn(2), inst))}
		}
		var explained boundRules
		got, err := e.EvaluateCtx(context.WithValue(context.Background(), ExplainerKey, &explained), req)
		if err != nil {
			t.Fatalf("step %d: %+v: %v", step, req, err)
		}
		want, err := model.Evaluate(refmodel.Request(req), now)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameDecision(got, want); err != nil {
			t.Fatalf("step %d: %+v: %v", step, req, err)
		}
		if err := sameRetained(store, model); err != nil {
			t.Fatalf("step %d: %+v: %v", step, req, err)
		}

		pr := &e.programs[0]
		if req.Context.At(0).Type == "TaxOffice" {
			pr = &e.programs[1]
		}
		bound, ok := bctx.MatchBind(pr.Context, req.Context)
		if !ok {
			t.Fatalf("step %d: %q does not match %q", step, req.Context, pr.Context)
		}
		carried := slices.Concat(got.Activated(), got.Closed(), explained)
		if got.Denial != nil {
			carried = append(carried, got.Denial.BoundContext)
		}
		for _, n := range carried {
			if !n.Equal(bound) {
				t.Fatalf("step %d: %+v: the decision carries %q, MatchBind binds %q", step, req, n, bound)
			}
		}
		if !bctx.IsBinding(pr.names[0].name, pr.Context, req.Context) {
			t.Fatalf("step %d: the slot holds %q after a request bound to %q", step, pr.names[0].name, bound)
		}
		effects[got.Effect]++
		closed += len(got.Closed())
		activated += len(got.Activated())
	}
	if effects[Grant] == 0 || effects[Deny] == 0 || closed == 0 || activated == 0 {
		t.Fatalf("the script took too few paths: %d grants, %d denials, %d closed, %d activated",
			effects[Grant], effects[Deny], closed, activated)
	}
}
