package core

import (
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/rbac"
)

// TestAllOptionsCompose wires every engine option together — clock and
// hierarchy expander — and checks the composed engine
// still enforces the examples correctly.
func TestAllOptionsCompose(t *testing.T) {
	model := rbac.NewModel()
	for _, r := range []rbac.RoleName{"Teller", "Auditor", "HeadCashier"} {
		if err := model.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := model.AddInheritance("HeadCashier", "Teller"); err != nil {
		t.Fatal(err)
	}

	store := adi.NewStore()
	e, err := NewEngine(store, bankPolicies(),
		WithClock(fixedTestClock),
		WithRoleExpander(model.Closure),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Hierarchy expansion.
	grant(t, e, Request{User: "u", Roles: []rbac.RoleName{"HeadCashier"},
		Operation: "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006")})
	deny(t, e, Request{User: "u", Roles: []rbac.RoleName{"Auditor"},
		Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=Leeds, Period=2006")})

	// Last-step purge under the full option set.
	dec := grant(t, e, Request{User: "w", Roles: []rbac.RoleName{"Auditor"},
		Operation: "CommitAudit", Target: "http://audit.location.com/audit",
		Context: bctx.MustParse("Branch=York, Period=2006")})
	if dec.Purged == 0 {
		t.Fatal("commit purged nothing")
	}
	active, _ := store.ContextActive(bctx.MustParse("Branch=*, Period=2006"))
	if active {
		t.Fatal("period still active after commit")
	}
	// Records carry the fixed clock.
	grant(t, e, Request{User: "x", Roles: []rbac.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2007")})
	n, _ := store.CountUserRole("x", bctx.Universal, "Teller", 0)
	if n != 1 {
		t.Fatalf("records for x = %d", n)
	}
}

func fixedTestClock() time.Time {
	return time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
}
