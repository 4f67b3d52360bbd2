package core

import (
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/refmodel"
)

// FuzzEvaluate throws arbitrary request fields at an engine carrying
// both paper policies, and hands every request to the reference model
// (internal/refmodel) too: the engine must never panic, must error only
// on invalid requests (empty user / non-instance context) and exactly
// when the model does, must leave the store unchanged on a denial, and
// must agree with the model on every effect and on the number of
// records retained after every request.
func FuzzEvaluate(f *testing.F) {
	f.Add("alice", "Teller", "HandleCash", "till", "Branch=York, Period=2006")
	f.Add("c1", "Clerk", "prepareCheck", "http://www.myTaxOffice.com/Check", "TaxOffice=Leeds, taxRefundProcess=p1")
	f.Add("", "Teller", "op", "t", "A=1")
	f.Add("u", "Auditor", "CommitAudit", "http://audit.location.com/audit", "Branch=York, Period=2006")
	f.Add("u", "X", "op", "t", "A=*")
	f.Add("u", "", "", "", "")

	set, err := policy.ParseMSoDPolicySet([]byte(paperXML))
	if err != nil {
		f.Fatal(err)
	}
	policies, err := Compile(set)
	if err != nil {
		f.Fatal(err)
	}
	model, err := refmodel.New(set)
	if err != nil {
		f.Fatal(err)
	}
	now := time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
	store := adi.NewStore()
	eng, err := NewEngine(store, policies, WithClock(func() time.Time { return now }))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, user, role, op, target, ctx string) {
		name, err := bctx.Parse(ctx)
		if err != nil {
			return
		}
		req := Request{
			User:      rbac.UserID(user),
			Roles:     []rbac.RoleName{rbac.RoleName(role)},
			Operation: rbac.Operation(op),
			Target:    rbac.Object(target),
			Context:   name,
		}
		before := store.Len()
		dec, err := eng.Evaluate(req)
		want, werr := model.Evaluate(refmodel.Request(req), now)
		if (err != nil) != (werr != nil) {
			t.Fatalf("engine error %v, model error %v (req %+v)", err, werr, req)
		}
		if err != nil {
			// Errors are only legal for invalid requests.
			if user != "" && name.IsInstance() {
				t.Fatalf("valid request errored: %v (req %+v)", err, req)
			}
			if store.Len() != before {
				t.Fatal("errored request changed the store")
			}
			return
		}
		if (dec.Effect == Grant) != want.Grant {
			t.Fatalf("engine %v (%v), model grant %v (%s) for %+v", dec.Effect, dec.Denial, want.Grant, want.Rule, req)
		}
		if store.Len() != model.Len() {
			t.Fatalf("engine retains %d records, model %d, after %+v", store.Len(), model.Len(), req)
		}
		if dec.Effect == Deny && store.Len() != before {
			t.Fatal("denied request changed the store")
		}
		if dec.Effect == Deny && dec.Denial == nil {
			t.Fatal("denial without explanation")
		}
	})
}
