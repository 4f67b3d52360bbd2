package pep

import (
	"strings"
	"testing"

	"msod/internal/bctx"
	"msod/internal/pdp"
	"msod/internal/rbac"
)

// decideOnly wraps a PDP but hides its advisory path, modelling a
// remote commit-point decider with no Advise.
type decideOnly struct{ p *pdp.PDP }

func (d decideOnly) Decide(req pdp.Request) (pdp.Decision, error) { return d.p.Decide(req) }

// TestPreflightFromOwner: through a *pdp.PDP Decider, Preflight
// returns the owner's own advice and records nothing.
func TestPreflightFromOwner(t *testing.T) {
	p := bankPDP(t)
	bc := bctx.MustParse("Branch=York, Period=2006")
	// alice is a teller in York 2006, so her auditor preflight must
	// come back denied.
	if _, err := p.Decide(pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till", Context: bc,
	}); err != nil {
		t.Fatal(err)
	}
	alice, err := New(p, Subject{User: "alice", Roles: []rbac.RoleName{"Auditor"}}, bc)
	if err != nil {
		t.Fatal(err)
	}

	before := p.Store().Len()
	dec, err := alice.Preflight("Audit", "ledger")
	if err != nil {
		t.Fatal(err)
	}
	ownerDec, err := p.Advise(pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Auditor"},
		Operation: "Audit", Target: "ledger", Context: bc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed != ownerDec.Allowed || dec.Allowed || dec.Reason() != ownerDec.Reason() {
		t.Errorf("preflight = %+v, owner advisory = %+v, want both the same MMER denial", dec, ownerDec)
	}
	// A preflight the policy allows records nothing either.
	bob, err := New(p, Subject{User: "bob", Roles: []rbac.RoleName{"Auditor"}}, bc)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := bob.Preflight("Audit", "ledger"); err != nil || !dec.Allowed {
		t.Errorf("clean-history preflight = %+v, %v, want grant", dec, err)
	}
	if p.Store().Len() != before {
		t.Errorf("preflight recorded state: store %d → %d", before, p.Store().Len())
	}
}

// TestPreflightWithoutAdvisoryPath: a Decider with no Advise is a
// configuration error, reported as such.
func TestPreflightWithoutAdvisoryPath(t *testing.T) {
	p := bankPDP(t)
	bc := bctx.MustParse("Branch=York, Period=2006")

	// Bare *pdp.PDP: Preflight uses its advisory path directly.
	alice, err := New(p, Subject{User: "alice", Roles: []rbac.RoleName{"Teller"}}, bc)
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := alice.Preflight("HandleCash", "till"); err != nil || !dec.Allowed {
		t.Errorf("direct advisory = %+v, %v", dec, err)
	}

	// Advise-less decider: explicit error.
	blind, err := New(decideOnly{p}, Subject{User: "alice", Roles: []rbac.RoleName{"Teller"}}, bc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blind.Preflight("HandleCash", "till"); err == nil || !strings.Contains(err.Error(), "no advisory path") {
		t.Errorf("advisory-less preflight = %v, want no-advisory-path error", err)
	}
}
