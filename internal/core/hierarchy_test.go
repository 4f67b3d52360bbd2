package core

import (
	"testing"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/rbac"
)

// hierModel: HeadCashier inherits Teller; ChiefAuditor inherits Auditor.
func hierModel(t *testing.T) *rbac.Model {
	t.Helper()
	m := rbac.NewModel()
	for _, r := range []rbac.RoleName{"Teller", "Auditor", "HeadCashier", "ChiefAuditor"} {
		if err := m.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddInheritance("HeadCashier", "Teller"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddInheritance("ChiefAuditor", "Auditor"); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestHierarchyAwareMMER: with the expander, using a senior role whose
// junior is in the conflicting set triggers the constraint; without it,
// the paper's literal engine is blind to the inheritance.
func TestHierarchyAwareMMER(t *testing.T) {
	model := hierModel(t)

	run := func(opts ...Option) (first, second *Decision) {
		e, err := NewEngine(adi.NewStore(), bankPolicies(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		first, err = e.Evaluate(Request{
			User: "u", Roles: []rbac.RoleName{"HeadCashier"},
			Operation: "HandleCash", Target: "till",
			Context: bctx.MustParse("Branch=York, Period=2006"),
		})
		if err != nil {
			t.Fatal(err)
		}
		second, err = e.Evaluate(Request{
			User: "u", Roles: []rbac.RoleName{"Auditor"},
			Operation: "Audit", Target: "ledger",
			Context: bctx.MustParse("Branch=York, Period=2006"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return first, second
	}

	// Literal engine: HeadCashier is not in {Teller, Auditor}, so the
	// history never mentions Teller and the audit is granted — the gap
	// the extension closes.
	f, s := run()
	if f.Effect != Grant || s.Effect != Grant {
		t.Fatalf("literal engine: first=%v second=%v", f.Effect, s.Effect)
	}

	// Hierarchy-aware engine: HeadCashier expands to {HeadCashier,
	// Teller}; the later Auditor activation is denied.
	f, s = run(WithRoleExpander(model.Closure))
	if f.Effect != Grant {
		t.Fatalf("hierarchy-aware first = %v", f.Effect)
	}
	if s.Effect != Deny {
		t.Fatal("hierarchy-aware engine missed the inherited conflict")
	}
}

// TestHierarchyAwareBothSenior: both sides of the conflict reached via
// senior roles.
func TestHierarchyAwareBothSenior(t *testing.T) {
	model := hierModel(t)
	e, err := NewEngine(adi.NewStore(), bankPolicies(), WithRoleExpander(model.Closure))
	if err != nil {
		t.Fatal(err)
	}
	grant(t, e, Request{
		User: "u", Roles: []rbac.RoleName{"HeadCashier"},
		Operation: "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
	deny(t, e, Request{
		User: "u", Roles: []rbac.RoleName{"ChiefAuditor"},
		Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
	// A different user's senior roles are unaffected.
	grant(t, e, Request{
		User: "v", Roles: []rbac.RoleName{"ChiefAuditor"},
		Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
}

// TestExpanderDoesNotMutateCaller: the caller's roles slice must not be
// modified by expansion.
func TestExpanderDoesNotMutateCaller(t *testing.T) {
	model := hierModel(t)
	e, err := NewEngine(adi.NewStore(), bankPolicies(), WithRoleExpander(model.Closure))
	if err != nil {
		t.Fatal(err)
	}
	roles := []rbac.RoleName{"HeadCashier"}
	if _, err := e.Evaluate(Request{
		User: "u", Roles: roles,
		Operation: "op", Target: "t",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}); err != nil {
		t.Fatal(err)
	}
	if len(roles) != 1 || roles[0] != "HeadCashier" {
		t.Errorf("caller's slice mutated: %v", roles)
	}
}
