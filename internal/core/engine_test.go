package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/rbac"
)

// bankPolicies returns the Example 1 policy:
// MMER({Teller, Auditor}, 2, "Branch=*, Period=!") with last step
// CommitAudit.
func bankPolicies() []Policy {
	return []Policy{{
		Context:  bctx.MustParse("Branch=*, Period=!"),
		LastStep: &Step{Operation: "CommitAudit", Target: "http://audit.location.com/audit"},
		MMER: []MMERRule{{
			Roles:       []rbac.RoleName{"Teller", "Auditor"},
			Cardinality: 2,
		}},
	}}
}

// cashPolicies returns two policies that both record a teller's
// HandleCash: an MMEP one over each branch's period ("Branch=!,
// Period=!": handling a till and auditing it), listed first, and the
// bank's MMER policy over the whole period. A recorded grant under both
// retains one record for each.
func cashPolicies() []Policy {
	return append([]Policy{{
		Context: bctx.MustParse("Branch=!, Period=!"),
		MMEP: []MMEPRule{{
			Privileges: []rbac.Permission{
				{Operation: "HandleCash", Object: "http://bank.example/till"},
				{Operation: "Audit", Object: "http://bank.example/till"},
			},
			Cardinality: 2,
		}},
	}}, bankPolicies()...)
}

const (
	checkTarget   = rbac.Object("http://www.myTaxOffice.com/Check")
	auditTarget   = rbac.Object("http://secret.location.com/audit")
	resultsTarget = rbac.Object("http://secret.location.com/results")
)

// taxPolicies returns the Example 2 policy set from §3.
func taxPolicies() []Policy {
	return []Policy{{
		Context:   bctx.MustParse("TaxOffice=!, taxRefundProcess=!"),
		FirstStep: &Step{Operation: "prepareCheck", Target: checkTarget},
		LastStep:  &Step{Operation: "confirmCheck", Target: auditTarget},
		MMEP: []MMEPRule{
			{
				Privileges: []rbac.Permission{
					{Operation: "prepareCheck", Object: checkTarget},
					{Operation: "confirmCheck", Object: auditTarget},
				},
				Cardinality: 2,
			},
			{
				Privileges: []rbac.Permission{
					{Operation: "approve/disapproveCheck", Object: checkTarget},
					{Operation: "approve/disapproveCheck", Object: checkTarget},
					{Operation: "combineResults", Object: resultsTarget},
				},
				Cardinality: 2,
			},
		},
	}}
}

func newEngine(t *testing.T, policies []Policy) (*Engine, *adi.Store) {
	t.Helper()
	store := adi.NewStore()
	eng, err := NewEngine(store, policies, WithClock(func() time.Time {
		return time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return eng, store
}

func grant(t *testing.T, e *Engine, req Request) *Decision {
	t.Helper()
	dec, err := e.Evaluate(req)
	if err != nil {
		t.Fatalf("Evaluate(%+v): %v", req, err)
	}
	if dec.Effect != Grant {
		t.Fatalf("Evaluate(%+v) = deny: %v", req, dec.Denial)
	}
	return dec
}

func deny(t *testing.T, e *Engine, req Request) *Decision {
	t.Helper()
	dec, err := e.Evaluate(req)
	if err != nil {
		t.Fatalf("Evaluate(%+v): %v", req, err)
	}
	if dec.Effect != Deny {
		t.Fatalf("Evaluate(%+v) = grant, want deny", req)
	}
	return dec
}

func bankReq(user, role, op, branch, period string) Request {
	target := rbac.Object("http://bank.example/till")
	if op == "CommitAudit" {
		target = "http://audit.location.com/audit"
	}
	return Request{
		User:      rbac.UserID(user),
		Roles:     []rbac.RoleName{rbac.RoleName(role)},
		Operation: rbac.Operation(op),
		Target:    target,
		Context:   bctx.MustParse("Branch=" + branch + ", Period=" + period),
	}
}

// TestExample1BankCashProcessing walks the paper's first motivating
// example end to end.
func TestExample1BankCashProcessing(t *testing.T) {
	e, store := newEngine(t, bankPolicies())

	// Alice handles cash as a Teller in York during period 2006.
	grant(t, e, bankReq("alice", "Teller", "HandleCash", "York", "2006"))

	// Later (different session, different branch, same period) she has
	// been promoted to Auditor — MSoD must deny, even though neither SSD
	// nor DSD would: the period's history remembers her Teller activity.
	dec := deny(t, e, bankReq("alice", "Auditor", "Audit", "Leeds", "2006"))
	if dec.Denial == nil || !strings.Contains(dec.Denial.Rule, "MMER") {
		t.Fatalf("denial = %+v", dec.Denial)
	}
	if dec.Denial.BoundContext.String() != "Branch=*, Period=2006" {
		t.Errorf("bound context = %q", dec.Denial.BoundContext)
	}

	// She can still act as Teller again in the same period...
	grant(t, e, bankReq("alice", "Teller", "HandleCash", "York", "2006"))
	// ...and as Auditor in a *different* period ("!" separates instances).
	grant(t, e, bankReq("alice", "Auditor", "Audit", "York", "2007"))

	// Another employee can audit period 2006.
	grant(t, e, bankReq("bob", "Auditor", "Audit", "York", "2006"))
	// But bob is now barred from telling in 2006 anywhere.
	deny(t, e, bankReq("bob", "Teller", "HandleCash", "Leeds", "2006"))

	// CommitAudit closes period 2006: history is purged...
	dec = grant(t, e, bankReq("bob", "Auditor", "CommitAudit", "York", "2006"))
	if dec.Purged == 0 {
		t.Fatal("CommitAudit purged nothing")
	}
	// ...so alice may now become an Auditor for 2006 work (paper: "After
	// auditing has been completed ... MMER enforcement for this business
	// context instance is finished, and the history information is
	// deleted").
	grant(t, e, bankReq("alice", "Auditor", "Audit", "York", "2006"))

	// The 2007 record must have survived the 2006 purge.
	ok, _ := store.UserHasRole("alice", bctx.MustParse("Branch=*, Period=2007"), "Auditor")
	if !ok {
		t.Error("2007 history lost in 2006 purge")
	}
}

func taxReq(user, role, op string, target rbac.Object, office, process string) Request {
	return Request{
		User:      rbac.UserID(user),
		Roles:     []rbac.RoleName{rbac.RoleName(role)},
		Operation: rbac.Operation(op),
		Target:    target,
		Context:   bctx.MustParse("TaxOffice=" + office + ", taxRefundProcess=" + process),
	}
}

// TestExample2TaxRefund walks the paper's second motivating example: the
// four-task tax refund workflow with MMEP constraints.
func TestExample2TaxRefund(t *testing.T) {
	e, _ := newEngine(t, taxPolicies())

	// T1: clerk c1 prepares the check (the first step).
	grant(t, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", "p1"))

	// T2: manager m1 approves; manager m2 approves.
	grant(t, e, taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "p1"))
	grant(t, e, taxReq("m2", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "p1"))

	// m1 may not approve twice in the same process instance (the
	// repeated-privilege constraint MMEP({p1,p1},2)).
	deny(t, e, taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "p1"))

	// T3: a manager who approved may not combine the results.
	deny(t, e, taxReq("m1", "Manager", "combineResults", resultsTarget, "Leeds", "p1"))
	deny(t, e, taxReq("m2", "Manager", "combineResults", resultsTarget, "Leeds", "p1"))
	// A third manager may.
	grant(t, e, taxReq("m3", "Manager", "combineResults", resultsTarget, "Leeds", "p1"))

	// Having combined, m3 may not now approve in the same instance.
	deny(t, e, taxReq("m3", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "p1"))

	// T4: the preparing clerk may not confirm the check...
	deny(t, e, taxReq("c1", "Clerk", "confirmCheck", auditTarget, "Leeds", "p1"))
	// ...but a different clerk may (and this is the last step).
	dec := grant(t, e, taxReq("c2", "Clerk", "confirmCheck", auditTarget, "Leeds", "p1"))
	if dec.Purged == 0 {
		t.Fatal("confirmCheck (last step) purged nothing")
	}

	// The process instance is over: everyone is free again in a new
	// instance, including in the same office.
	grant(t, e, taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "p2"))
	// And c1 can confirm in p2 if someone else prepared.
	grant(t, e, taxReq("c3", "Clerk", "prepareCheck", checkTarget, "Leeds", "p2"))
	grant(t, e, taxReq("c1", "Clerk", "confirmCheck", auditTarget, "Leeds", "p2"))
}

// TestExample2InstanceIndependence checks that the same user may perform
// conflicting tasks in different process instances concurrently ("the
// same clerk is authorized to do either Task 1 or Task 4 in a different
// tax refund process instance", §2.2).
func TestExample2InstanceIndependence(t *testing.T) {
	e, _ := newEngine(t, taxPolicies())
	grant(t, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", "pA"))
	grant(t, e, taxReq("c2", "Clerk", "prepareCheck", checkTarget, "Leeds", "pB"))
	// c1 prepared pA so cannot confirm pA, but can confirm pB.
	deny(t, e, taxReq("c1", "Clerk", "confirmCheck", auditTarget, "Leeds", "pA"))
	grant(t, e, taxReq("c1", "Clerk", "confirmCheck", auditTarget, "Leeds", "pB"))
	// Different offices are different instances too (TaxOffice=!).
	grant(t, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "York", "pA"))
	deny(t, e, taxReq("c1", "Clerk", "confirmCheck", auditTarget, "York", "pA"))
}

// TestFirstStepGatesEnforcement checks §3: "If the first step is
// omitted, the PDP must start to enforce MSoD from whatever is the first
// operation... "; with a first step, earlier operations are not
// recorded or constrained.
func TestFirstStepGatesEnforcement(t *testing.T) {
	e, store := newEngine(t, taxPolicies())

	// approve before prepareCheck: context not started, no history kept,
	// request passes through MSoD untouched.
	dec := grant(t, e, taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "p1"))
	if dec.Recorded != 0 {
		t.Fatalf("recorded %d before first step", dec.Recorded)
	}
	if store.Len() != 0 {
		t.Fatalf("store has %d records before first step", store.Len())
	}

	// Start the process; now the same manager approves twice — the first
	// (pre-context) approval is invisible, so one approval is granted and
	// the second is denied.
	grant(t, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", "p1"))
	grant(t, e, taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "p1"))
	deny(t, e, taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "p1"))
}

// TestNoFirstStepStartsOnAnyOperation checks that without a FirstStep
// the first operation in a context instance starts retention (the bank
// policy has no first step).
func TestNoFirstStepStartsOnAnyOperation(t *testing.T) {
	e, store := newEngine(t, bankPolicies())
	dec := grant(t, e, bankReq("alice", "Teller", "HandleCash", "York", "2006"))
	if dec.Recorded != 1 {
		t.Fatalf("recorded %d, want 1", dec.Recorded)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d records", store.Len())
	}
}

// TestUnmatchedContextBypassesMSoD checks step 1's EXIT: requests in
// contexts no policy covers are granted without recording.
func TestUnmatchedContextBypassesMSoD(t *testing.T) {
	e, store := newEngine(t, taxPolicies())
	dec := grant(t, e, Request{
		User: "u", Roles: []rbac.RoleName{"Clerk"},
		Operation: "prepareCheck", Target: checkTarget,
		Context: bctx.MustParse("Warehouse=7"),
	})
	if dec.MatchedPolicies != 0 || dec.Recorded != 0 || store.Len() != 0 {
		t.Fatalf("dec=%+v len=%d", dec, store.Len())
	}
}

// TestSubordinateContextMatches checks "all contexts which are equal or
// subordinate to the context in the MMER rule should be applied with the
// MMER rule" (§2.3).
func TestSubordinateContextMatches(t *testing.T) {
	e, _ := newEngine(t, bankPolicies())
	// A deeper instance (with a Till component) is subordinate to
	// "Branch=*, Period=!".
	deepTeller := Request{
		User: "alice", Roles: []rbac.RoleName{"Teller"},
		Operation: "HandleCash", Target: "t",
		Context: bctx.MustParse("Branch=York, Period=2006, Till=4"),
	}
	grant(t, e, deepTeller)
	// Auditing in the plain period context is denied: the bound policy
	// context "Branch=*, Period=2006" covers the deep record.
	deny(t, e, bankReq("alice", "Auditor", "Audit", "Leeds", "2006"))
}

// TestDenyLeavesStoreUntouched checks the §4.2 note: "if the access
// request is denied, then no change needs to be made to the retained ADI
// database".
func TestDenyLeavesStoreUntouched(t *testing.T) {
	e, store := newEngine(t, bankPolicies())
	grant(t, e, bankReq("alice", "Teller", "HandleCash", "York", "2006"))
	before := store.Len()
	deny(t, e, bankReq("alice", "Auditor", "Audit", "York", "2006"))
	if store.Len() != before {
		t.Fatalf("store changed on deny: %d -> %d", before, store.Len())
	}
}

// TestSimultaneousConflictingRoles checks that activating m conflicting
// roles in a single request is denied once the context has history.
func TestSimultaneousConflictingRoles(t *testing.T) {
	e, _ := newEngine(t, bankPolicies())
	grant(t, e, bankReq("bob", "Teller", "HandleCash", "York", "2006"))
	dec, err := e.Evaluate(Request{
		User:      "alice",
		Roles:     []rbac.RoleName{"Teller", "Auditor"},
		Operation: "Anything", Target: "t",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Effect != Deny {
		t.Fatal("simultaneous activation of the full conflicting set was granted")
	}
}

// TestFirstStepCornerCase documents the algorithm's literal step-4
// behaviour: the very first request in a context instance is recorded
// without MMER checks, so a user activating the whole conflicting set on
// the opening request slips through once — but is then locked out of
// every conflicting role for the rest of the instance.
func TestFirstStepCornerCase(t *testing.T) {
	e, _ := newEngine(t, bankPolicies())
	both := Request{
		User:      "mallory",
		Roles:     []rbac.RoleName{"Teller", "Auditor"},
		Operation: "HandleCash", Target: "t",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}
	grant(t, e, both) // step 4: no history yet, recorded verbatim
	// From now on every use of either role by mallory in 2006 is denied:
	// the recorded history lists the other conflicting role.
	deny(t, e, bankReq("mallory", "Teller", "HandleCash", "York", "2006"))
	deny(t, e, bankReq("mallory", "Auditor", "Audit", "York", "2006"))
}

// TestMultiplePoliciesAllApply checks step 1: "If there are multiple
// matches then all policies apply and are selected."
func TestMultiplePoliciesAllApply(t *testing.T) {
	policies := append(bankPolicies(), Policy{
		Context: bctx.MustParse("Branch=York"),
		MMEP: []MMEPRule{{
			Privileges: []rbac.Permission{
				{Operation: "OpenVault", Object: "vault"},
				{Operation: "CloseVault", Object: "vault"},
			},
			Cardinality: 2,
		}},
	})
	e, _ := newEngine(t, policies)

	req := Request{
		User: "alice", Roles: []rbac.RoleName{"Teller"},
		Operation: "OpenVault", Target: "vault",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}
	dec := grant(t, e, req)
	if dec.MatchedPolicies != 2 {
		t.Fatalf("MatchedPolicies = %d, want 2", dec.MatchedPolicies)
	}
	// The vault policy (scoped to Branch=York, all periods) now forbids
	// alice closing the vault even in another period.
	deny(t, e, Request{
		User: "alice", Roles: []rbac.RoleName{"Teller"},
		Operation: "CloseVault", Target: "vault",
		Context: bctx.MustParse("Branch=York, Period=2007"),
	})
	// The bank MMER policy still applies independently.
	deny(t, e, bankReq("alice", "Auditor", "Audit", "York", "2006"))
}

// TestStarAggregatesAcrossInstances contrasts "*" with "!": with
// Branch=* the history is shared across branches, with Branch=! it is
// per branch.
func TestStarAggregatesAcrossInstances(t *testing.T) {
	star := []Policy{{
		Context: bctx.MustParse("Branch=*"),
		MMER:    []MMERRule{{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}},
	}}
	bang := []Policy{{
		Context: bctx.MustParse("Branch=!"),
		MMER:    []MMERRule{{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}},
	}}

	eStar, _ := newEngine(t, star)
	grant(t, eStar, Request{User: "u", Roles: []rbac.RoleName{"Teller"},
		Operation: "op", Target: "t", Context: bctx.MustParse("Branch=York")})
	deny(t, eStar, Request{User: "u", Roles: []rbac.RoleName{"Auditor"},
		Operation: "op", Target: "t", Context: bctx.MustParse("Branch=Leeds")})

	eBang, _ := newEngine(t, bang)
	grant(t, eBang, Request{User: "u", Roles: []rbac.RoleName{"Teller"},
		Operation: "op", Target: "t", Context: bctx.MustParse("Branch=York")})
	// Different branch, different instance: allowed under "!".
	grant(t, eBang, Request{User: "u", Roles: []rbac.RoleName{"Auditor"},
		Operation: "op", Target: "t", Context: bctx.MustParse("Branch=Leeds")})
	// Same branch: denied.
	deny(t, eBang, Request{User: "u", Roles: []rbac.RoleName{"Auditor"},
		Operation: "op", Target: "t", Context: bctx.MustParse("Branch=York")})
}

func TestRequestValidation(t *testing.T) {
	e, _ := newEngine(t, bankPolicies())
	if _, err := e.Evaluate(Request{Context: bctx.MustParse("A=1")}); err == nil {
		t.Error("empty user accepted")
	}
	if _, err := e.Evaluate(Request{User: "u", Context: bctx.MustParse("A=*")}); err == nil {
		t.Error("wildcard request context accepted")
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, nil); err == nil {
		t.Error("nil store accepted")
	}
	bad := []Policy{{Context: bctx.Universal}}
	if _, err := NewEngine(adi.NewStore(), bad); err == nil {
		t.Error("constraint-free policy accepted")
	}
}

// TestLastStepAtContextStart: the opening operation is also the last
// step — the instance terminates immediately and nothing is retained.
func TestLastStepAtContextStart(t *testing.T) {
	e, store := newEngine(t, bankPolicies())
	dec := grant(t, e, bankReq("alice", "Auditor", "CommitAudit", "York", "2006"))
	if dec.Recorded != 0 || store.Len() != 0 {
		t.Fatalf("immediate last step retained history: %+v len=%d", dec, store.Len())
	}
}

// TestMMERThreeOfN exercises an m<n cardinality: 2-out-of-3.
func TestMMERThreeOfN(t *testing.T) {
	policies := []Policy{{
		Context: bctx.MustParse("P=!"),
		MMER: []MMERRule{{
			Roles:       []rbac.RoleName{"A", "B", "C"},
			Cardinality: 2,
		}},
	}}
	e, _ := newEngine(t, policies)
	ctx := "P=1"
	grant(t, e, Request{User: "u", Roles: []rbac.RoleName{"A"}, Operation: "op", Target: "t", Context: bctx.MustParse(ctx)})
	// Any second distinct role from the set is now denied.
	deny(t, e, Request{User: "u", Roles: []rbac.RoleName{"B"}, Operation: "op", Target: "t", Context: bctx.MustParse(ctx)})
	deny(t, e, Request{User: "u", Roles: []rbac.RoleName{"C"}, Operation: "op", Target: "t", Context: bctx.MustParse(ctx)})
	// Same role again is fine.
	grant(t, e, Request{User: "u", Roles: []rbac.RoleName{"A"}, Operation: "op2", Target: "t", Context: bctx.MustParse(ctx)})
}

// TestMMERThreeOfThree: with m=n=3 a user may hold any two but not all
// three.
func TestMMERThreeOfThree(t *testing.T) {
	policies := []Policy{{
		Context: bctx.MustParse("P=!"),
		MMER: []MMERRule{{
			Roles:       []rbac.RoleName{"A", "B", "C"},
			Cardinality: 3,
		}},
	}}
	e, _ := newEngine(t, policies)
	ctx := bctx.MustParse("P=1")
	grant(t, e, Request{User: "u", Roles: []rbac.RoleName{"A"}, Operation: "op", Target: "t", Context: ctx})
	grant(t, e, Request{User: "u", Roles: []rbac.RoleName{"B"}, Operation: "op", Target: "t", Context: ctx})
	deny(t, e, Request{User: "u", Roles: []rbac.RoleName{"C"}, Operation: "op", Target: "t", Context: ctx})
}

// TestTripleRepeatedPrivilege: MMEP({p,p,p},3) caps executions at two
// per instance (multiset counting).
func TestTripleRepeatedPrivilege(t *testing.T) {
	p := rbac.Permission{Operation: "approve", Object: "t"}
	policies := []Policy{{
		Context: bctx.MustParse("P=!"),
		MMEP: []MMEPRule{{
			Privileges:  []rbac.Permission{p, p, p},
			Cardinality: 3,
		}},
	}}
	e, _ := newEngine(t, policies)
	ctx := bctx.MustParse("P=1")
	req := Request{User: "u", Roles: []rbac.RoleName{"Manager"}, Operation: "approve", Target: "t", Context: ctx}
	grant(t, e, req)
	grant(t, e, req)
	deny(t, e, req)
}

func TestDenialError(t *testing.T) {
	e, _ := newEngine(t, bankPolicies())
	grant(t, e, bankReq("alice", "Teller", "HandleCash", "York", "2006"))
	dec := deny(t, e, bankReq("alice", "Auditor", "Audit", "York", "2006"))
	msg := dec.Denial.Error()
	for _, want := range []string{"MMER[0]", "Branch=*, Period=!", "Branch=*, Period=2006"} {
		if !strings.Contains(msg, want) {
			t.Errorf("denial message %q missing %q", msg, want)
		}
	}
	if strings.Contains(msg, "alice") {
		t.Errorf("denial message %q names the user", msg)
	}
	if Grant.String() != "grant" || Deny.String() != "deny" {
		t.Error("Effect.String broken")
	}
}

// TestDecisionStartedAndTerminated: a grant reports the instances it
// started and the ones it terminated separately, each in policy order,
// whichever order the policies produced them in; Close is the same
// termination asked for from outside, and a Peek reports neither.
func TestDecisionStartedAndTerminated(t *testing.T) {
	rule := []MMERRule{{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}}
	step := &Step{Operation: "go", Target: "t"}
	e, store := newEngine(t, []Policy{
		{Context: bctx.MustParse("A=!"), LastStep: step, MMER: rule},
		{Context: bctx.MustParse("A=!, B=*"), FirstStep: step, MMER: rule},
		{Context: bctx.MustParse("A=*, B=!"), LastStep: step, MMER: rule},
		{Context: bctx.MustParse("A=!, B=!"), FirstStep: step, MMER: rule},
	})
	req := Request{User: "alice", Roles: []rbac.RoleName{"Teller"}, Operation: "go", Target: "t", Context: bctx.MustParse("A=1, B=2")}
	names := func(bounds []bctx.Name) string {
		var out []string
		for _, b := range bounds {
			out = append(out, b.String())
		}
		return strings.Join(out, "; ")
	}
	peek, err := e.Peek(req)
	if err != nil || len(peek.Activated())+len(peek.Closed()) != 0 {
		t.Fatalf("Peek started %q, terminated %q, %v; it commits nothing", names(peek.Activated()), names(peek.Closed()), err)
	}
	dec := grant(t, e, req)
	if got, want := names(dec.Activated()), "A=1, B=*; A=1, B=2"; got != want {
		t.Errorf("Activated() = %q, want %q", got, want)
	}
	if got, want := names(dec.Closed()), "A=1; A=*, B=2"; got != want {
		t.Errorf("Closed() = %q, want %q", got, want)
	}
	if a := append(dec.Activated(), bctx.Universal); names(dec.Closed()) != "A=1; A=*, B=2" || len(a) != 3 {
		t.Errorf("appending to Activated() reached Closed(): %q", names(dec.Closed()))
	}

	// Mutations apply in policy order, so the third policy's purge took
	// the second's opening record with it; the fourth's is left.
	if store.Len() != 1 {
		t.Fatalf("one opening record expected, store holds %d", store.Len())
	}
	n := 0
	err = e.Apply([]adi.Op{{Kind: adi.OpClose, Bound: bctx.MustParse("A=1, B=*")}}, func(_ adi.Op, eff adi.Effect) { n += eff.Removed })
	if err != nil || n != 1 || store.Len() != 0 {
		t.Fatalf("the close removed %d (%v), store holds %d; want the record gone", n, err, store.Len())
	}
}

// TestDecisionOwnsItsStorage: a decision's Denial and its started and
// closed names live in its one object (Decision.box), so what a caller
// writes through one of its slices reaches neither its other half nor
// another decision nor a denial, and no two decisions share storage.
func TestDecisionOwnsItsStorage(t *testing.T) {
	rule := []MMERRule{{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}}
	step := &Step{Operation: "go", Target: "t"}
	e, _ := newEngine(t, []Policy{
		{Context: bctx.MustParse("A=!"), LastStep: step, MMER: rule},
		{Context: bctx.MustParse("A=!, B=!"), FirstStep: step, MMER: rule},
	})
	req := func(user, role, op, a string) Request {
		return Request{User: rbac.UserID(user), Roles: []rbac.RoleName{rbac.RoleName(role)}, Operation: rbac.Operation(op),
			Target: "t", Context: bctx.MustParse("A=" + a + ", B=" + a)}
	}
	// Each grant starts "A=a, B=a" and closes "A=a"; each denial is
	// MMER[0] in "A=a".
	first, second := grant(t, e, req("alice", "Teller", "go", "1")), grant(t, e, req("bob", "Teller", "go", "2"))
	grant(t, e, req("carol", "Teller", "work", "3"))
	grant(t, e, req("dave", "Teller", "work", "4"))
	denials := []*Decision{deny(t, e, req("carol", "Auditor", "work", "3")), deny(t, e, req("dave", "Auditor", "work", "4"))}
	shape := func(d *Decision) string {
		if d.Denial != nil {
			return d.Denial.Rule + " in " + d.Denial.BoundContext.String()
		}
		return fmt.Sprintf("started %v, closed %v", d.Activated(), d.Closed())
	}
	decisions := []*Decision{first, second, denials[0], denials[1]}
	want := []string{"started [A=1, B=1], closed [A=1]", "started [A=2, B=2], closed [A=2]", "MMER[0] in A=3", "MMER[0] in A=4"}
	check := func(after string) {
		t.Helper()
		for i, d := range decisions {
			if got := shape(d); got != want[i] {
				t.Errorf("after %s, decision %d is %s; want %s", after, i, got, want[i])
			}
		}
	}
	check("deciding")

	_ = append(first.Activated(), bctx.Universal)
	check("appending to Activated()")
	if c := first.Closed(); cap(c) != len(c) {
		t.Errorf("Closed() has capacity %d past its %d names", cap(c), len(c))
	}
	_ = append(first.Closed(), bctx.Universal)
	check("appending to Closed()")

	x := bctx.MustParse("X=0")
	first.Activated()[0], first.Closed()[0] = x, x
	denials[0].Denial.Rule = "changed"
	want[0], want[2] = "started [X=0], closed [X=0]", "changed in A=3"
	check("writing one decision's names and one denial")
	if first.Denial != nil || denials[0].Denial == denials[1].Denial {
		t.Error("decisions share a Denial")
	}

	// Every shape copies the names out of the engine's buffer, and keeps
	// its Closed() capacity-capped, the general path for three or more
	// names too.
	buf := []bctx.Name{bctx.MustParse("A=1"), bctx.MustParse("A=2"), bctx.MustParse("A=3"), bctx.MustParse("A=4"), bctx.MustParse("A=5")}
	for n := 1; n <= len(buf); n++ {
		d := Decision{split: 1}.box(Denial{}, buf[:n])
		buf[0], buf[n-1] = bctx.Universal, bctx.Universal
		if d.Activated()[0].String() != "A=1" || d.bounds[n-1].String() != fmt.Sprintf("A=%d", n) {
			t.Errorf("%d names: the decision's %v follow the engine's buffer", n, d.bounds)
		}
		if c := d.Closed(); cap(c) != len(c) || len(c) != n-1 {
			t.Errorf("%d names: Closed() is %d names of capacity %d; want %d, capped", n, len(c), cap(c), n-1)
		}
		for i := range buf {
			buf[i] = bctx.MustParse(fmt.Sprintf("A=%d", i+1))
		}
	}
}

// TestFirstStepInRunningInstanceIsReported: a node of a sharded PDP that
// missed an instance's close still holds its records, so the next first
// step looks to it like one more step of a running instance. It is
// reported as an activation all the same — the other nodes closed the
// instance, and would let their users' steps in the new one pass
// unrecorded if nobody told them it had started.
func TestFirstStepInRunningInstanceIsReported(t *testing.T) {
	e, _ := newEngine(t, taxPolicies())
	first := grant(t, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", "p1"))
	if len(first.Activated()) != 1 {
		t.Fatalf("opening first step: Activated() = %v", first.Activated())
	}
	mid := grant(t, e, taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "p1"))
	if len(mid.Activated()) != 0 {
		t.Fatalf("a later step reports Activated() = %v", mid.Activated())
	}
	again := grant(t, e, taxReq("c2", "Clerk", "prepareCheck", checkTarget, "Leeds", "p1"))
	if len(again.Activated()) != 1 || again.Activated()[0].String() != "TaxOffice=Leeds, taxRefundProcess=p1" || again.Recorded != 1 {
		t.Fatalf("first step in the running instance = %+v, want it recorded and reported as an activation", again)
	}
	if peek, err := e.Peek(taxReq("c3", "Clerk", "prepareCheck", checkTarget, "Leeds", "p1")); err != nil || len(peek.Activated()) != 0 {
		t.Fatalf("Peek reports Activated() = %v, %v; it commits nothing", peek.Activated(), err)
	}
}
