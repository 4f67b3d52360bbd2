package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"msod/internal/bctx"
	"msod/internal/race"
	"msod/internal/rbac"
)

// inPlainGrants reports whether d is an entry of the engine's table of
// read-only plain grants.
func inPlainGrants(d *Decision) bool {
	for m := range plainGrants {
		for r := range plainGrants[m] {
			if d == &plainGrants[m][r] {
				return true
			}
		}
	}
	return false
}

// TestPlainGrantsAreShared: a grant that starts, closes and purges
// nothing is the table's entry for its counts, one object for every
// evaluation and advisory of every engine (Decision.box); every other
// decision, and a plain grant past the table's bounds, is an object of
// its own with the counts it was decided with.
func TestPlainGrantsAreShared(t *testing.T) {
	t.Run("evaluations and advisories", plainGrantsAreShared)
	t.Run("concurrently", plainGrantsConcurrently)
}

func plainGrantsAreShared(t *testing.T) {
	e1, _ := newEngine(t, bankPolicies())
	e2, _ := newEngine(t, bankPolicies())

	opened := grant(t, e1, bankReq("alice", "Teller", "HandleCash", "York", "p1"))
	recorded := grant(t, e1, bankReq("bob", "Teller", "HandleCash", "Leeds", "p1"))
	other := grant(t, e2, bankReq("carol", "Teller", "HandleCash", "York", "p9"))
	peeked, err := e1.Peek(bankReq("dave", "Teller", "HandleCash", "York", "p1"))
	if err != nil {
		t.Fatal(err)
	}
	if opened != &plainGrants[1][1] || recorded != opened || other != opened || peeked != opened {
		t.Errorf("plain grants of one policy and one record are %p, %p, %p and %p; want the shared %p",
			opened, recorded, other, peeked, &plainGrants[1][1])
	}
	if opened.Effect != Grant || opened.MatchedPolicies != 1 || opened.Recorded != 1 || opened.Purged != 0 ||
		opened.Denial != nil || len(opened.Activated()) != 0 || len(opened.Closed()) != 0 {
		t.Errorf("the shared grant reads %+v", *opened)
	}
	unmatched := Request{User: "u", Roles: []rbac.RoleName{"Teller"}, Operation: "HandleCash", Target: "t",
		Context: bctx.MustParse("Dept=d1, Project=p1")}
	for i, e := range []*Engine{e1, e2} {
		evaluated, err1 := e.Evaluate(unmatched)
		advised, err2 := e.Peek(unmatched)
		if err1 != nil || err2 != nil || evaluated != &plainGrants[0][0] || advised != evaluated {
			t.Errorf("engine %d: an unmatched context's grant and advisory are %p (%v) and %p (%v); want the shared %p",
				i+1, evaluated, err1, advised, err2, &plainGrants[0][0])
		}
	}

	// A denial and a grant naming instances are objects of their own —
	// but a bank denial repeated in its period, which is the period's
	// (TestDenialsAreShared): the denials here are a tax process's.
	et, _ := newEngine(t, taxPolicies())
	grant(t, et, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", "t1"))
	approval := taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "t1")
	grant(t, et, approval)
	fresh := map[string][2]*Decision{
		"denials": {deny(t, et, approval), deny(t, et, approval)},
		"grants closing one name": {
			grant(t, e1, bankReq("erin", "Auditor", "CommitAudit", "York", "p1")),
			grant(t, e2, bankReq("frank", "Auditor", "CommitAudit", "York", "p9")),
		},
	}
	rule := []MMERRule{{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}}
	step := &Step{Operation: "go", Target: "t"}
	e3, _ := newEngine(t, []Policy{
		{Context: bctx.MustParse("A=!"), LastStep: step, MMER: rule},
		{Context: bctx.MustParse("A=!, B=!"), FirstStep: step, MMER: rule},
	})
	twoNames := func(user, a string) *Decision {
		return grant(t, e3, Request{User: rbac.UserID(user), Roles: []rbac.RoleName{"Teller"}, Operation: "go",
			Target: "t", Context: bctx.MustParse("A=" + a + ", B=" + a)})
	}
	fresh["grants starting one name and closing one"] = [2]*Decision{twoNames("alice", "1"), twoNames("bob", "2")}
	for shape, pair := range fresh {
		if pair[0] == pair[1] || inPlainGrants(pair[0]) || inPlainGrants(pair[1]) {
			t.Errorf("%s: %p and %p; want two objects of their own", shape, pair[0], pair[1])
		}
	}

	// Past either bound, a plain grant is boxed with its counts: five
	// policies matching one instance, or one rule whose four active
	// roles record four records.
	var five []Policy
	for _, c := range []string{"A=*", "A=!", "A=*, B=*", "A=!, B=*", "A=*, B=!"} {
		five = append(five, Policy{Context: bctx.MustParse(c), MMER: rule})
	}
	e4, _ := newEngine(t, five)
	e5, _ := newEngine(t, []Policy{{Context: bctx.MustParse("A=!"),
		MMER: []MMERRule{{Roles: []rbac.RoleName{"R1", "R2", "R3", "R4", "R5"}, Cardinality: 5}}}})
	four := []rbac.RoleName{"R1", "R2", "R3", "R4"}
	for _, tc := range []struct {
		name              string
		e                 *Engine
		roles             []rbac.RoleName
		matched, recorded int
	}{
		{"more matched policies than the table's bound", e4, []rbac.RoleName{"Teller"}, 5, 5},
		{"more records than the table's bound", e5, four, 1, 4},
	} {
		req := func(user string) Request {
			return Request{User: rbac.UserID(user), Roles: tc.roles, Operation: "go", Target: "t",
				Context: bctx.MustParse("A=1, B=1")}
		}
		grant(t, tc.e, req("opener"))
		a, b := grant(t, tc.e, req("alice")), grant(t, tc.e, req("bob"))
		for _, d := range []*Decision{a, b} {
			if inPlainGrants(d) || d.MatchedPolicies != tc.matched || int(d.Recorded) != tc.recorded || d.Purged != 0 {
				t.Errorf("%s: %p matched %d, recorded %d, purged %d; want an object of its own, %d and %d",
					tc.name, d, d.MatchedPolicies, d.Recorded, d.Purged, tc.matched, tc.recorded)
			}
		}
		if a == b {
			t.Errorf("%s: two grants share %p", tc.name, a)
		}
	}
}

// plainGrantsConcurrently: deciders of two engines read the shared
// entries while others are handed them; under -race, no access to the
// table is a write.
func plainGrantsConcurrently(t *testing.T) {
	engines := make([]*Engine, 2)
	for i := range engines {
		engines[i], _ = newEngine(t, append(bankPolicies(), taxPolicies()...))
	}
	const deciders, requests = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, deciders)
	for g := range deciders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := engines[g%len(engines)]
			for i := range requests {
				period := fmt.Sprintf("g%d-p%d", g, i)
				for _, req := range []Request{
					bankReq("alice", "Teller", "HandleCash", "York", period),
					bankReq("bob", "Teller", "HandleCash", "Leeds", period),
				} {
					d, err := e.Evaluate(req)
					if err != nil {
						errs <- err
						return
					}
					if d != &plainGrants[1][1] || d.Effect != Grant || d.MatchedPolicies != 1 || d.Recorded != 1 {
						errs <- fmt.Errorf("decider %d, %s: %p reads %+v; want the shared one-policy, one-record grant",
							g, period, d, *d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDenialsAreShared: in a mixed policy's bound instance, the first
// denial boxes the instance's shared denial, and every later one with
// the same rule, k, m and matched policies is that object, through
// Evaluate and Peek alike (boundSlot.share). A denial in another
// instance, one of another k, one after the slot was rebound or the
// instance closed, and one of a policy that binds no names table are
// objects of their own. The shared denial's text is a fresh one's, rendered once:
// reading it again allocates nothing.
func TestDenialsAreShared(t *testing.T) {
	t.Run("evaluations and advisories", denialsAreShared)
	t.Run("concurrently", denialsConcurrently)
}

func denialsAreShared(t *testing.T) {
	e, _ := newEngine(t, append(bankPolicies(), taxPolicies()...))
	auditor := func(user, branch, period string) Request {
		return bankReq(user, "Auditor", "Audit", branch, period)
	}
	for _, user := range []string{"alice", "bob", "carol"} {
		grant(t, e, bankReq(user, "Teller", "HandleCash", "York", "p1"))
	}
	shared := deny(t, e, auditor("alice", "York", "p1"))
	second := deny(t, e, auditor("bob", "Leeds", "p1"))
	peeked, err := e.Peek(auditor("carol", "Leeds", "p1"))
	if err != nil {
		t.Fatal(err)
	}
	if second != shared || peeked != shared {
		t.Errorf("denials in one period are %p, %p and, advised, %p; want one object", shared, second, peeked)
	}
	if shared.Effect != Deny || shared.MatchedPolicies != 1 || shared.Recorded != 0 || shared.Purged != 0 ||
		len(shared.Activated()) != 0 || len(shared.Closed()) != 0 {
		t.Errorf("the denial reads %+v", *shared)
	}
	checkDenialText(t, shared.Denial, "MMER[0]", "Branch=*, Period=p1", "holds 1 conflicting role(s)")
	// A copy is values of its own, and renders them: the shared text is
	// a fresh denial's.
	copied := *shared.Denial
	if shared.Denial.Error() != copied.Error() {
		t.Errorf("the shared denial reads %q, a fresh one %q", shared.Denial.Error(), copied.Error())
	}
	if !race.Enabled {
		if n := testing.AllocsPerRun(10, func() { _ = shared.Denial.Error() }); n != 0 {
			t.Errorf("reading the shared denial's text again allocates %v times", n)
		}
	}
	copied.Held = 2
	if text := copied.Error(); !strings.Contains(text, "holds 2 conflicting") {
		t.Errorf("a copy of the shared denial with Held 2 reads %q", text)
	}

	// Another k, under MMER({Teller, Auditor, Clerk}, 3): a teller
	// activating Auditor and Clerk holds 1 conflicting role, a teller
	// who was a clerk too and activates Auditor holds 2. That denial is
	// its own object, and the shared one stays the instance's.
	ek, _ := newEngine(t, []Policy{{Context: bctx.MustParse("Branch=*, Period=!"),
		MMER: []MMERRule{{Roles: []rbac.RoleName{"Teller", "Auditor", "Clerk"}, Cardinality: 3}}}})
	both := func(user string) Request {
		r := auditor(user, "York", "p1")
		r.Roles = []rbac.RoleName{"Auditor", "Clerk"}
		return r
	}
	for _, user := range []string{"t1", "t2", "x"} {
		grant(t, ek, bankReq(user, "Teller", "HandleCash", "York", "p1"))
	}
	grant(t, ek, bankReq("x", "Clerk", "HandleCash", "York", "p1"))
	sharedK := deny(t, ek, both("t1"))
	otherK := deny(t, ek, auditor("x", "York", "p1"))
	if otherK == sharedK || otherK.Denial.Held != 2 || sharedK.Denial.Held != 1 || deny(t, ek, both("t2")) != sharedK {
		t.Errorf("a denial holding %d is %p beside the shared %p holding %d; want its own object, and the shared one kept",
			otherK.Denial.Held, otherK, sharedK, sharedK.Denial.Held)
	}

	// Another period: its own shared denial.
	grant(t, e, bankReq("alice", "Teller", "HandleCash", "York", "p2"))
	grant(t, e, bankReq("bob", "Teller", "HandleCash", "York", "p2"))
	p2 := []*Decision{deny(t, e, auditor("alice", "York", "p2")), deny(t, e, auditor("bob", "York", "p2"))}
	if p2[0] == shared || p2[1] != p2[0] {
		t.Errorf("another period's denials are %p and %p beside p1's shared %p; want one object of their own", p2[0], p2[1], shared)
	}
	checkDenialText(t, p2[0].Denial, "MMER[0]", "Branch=*, Period=p2", "holds 1 conflicting role(s)")

	// A granted last step closes the period, and drops its shared
	// denial: reopened, it boxes a new one.
	grant(t, e, bankReq("erin", "Auditor", "CommitAudit", "York", "p2"))
	grant(t, e, bankReq("alice", "Teller", "HandleCash", "York", "p2"))
	grant(t, e, bankReq("bob", "Teller", "HandleCash", "York", "p2"))
	reopened := []*Decision{deny(t, e, auditor("alice", "Leeds", "p2")), deny(t, e, auditor("bob", "York", "p2"))}
	if reopened[0] == p2[0] || reopened[1] != reopened[0] {
		t.Errorf("p2's denials after it closed are %p and %p beside its shared %p before; want one new shared object",
			reopened[0], reopened[1], p2[0])
	}

	// A tax denial binds no names table: every one is its own object.
	grant(t, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", "t1"))
	req := taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", "t1")
	grant(t, e, req)
	taxes := []*Decision{deny(t, e, req), deny(t, e, req), deny(t, e, req)}
	if taxes[0] == taxes[1] || taxes[1] == taxes[2] || taxes[0] == taxes[2] {
		t.Errorf("tax denials %p, %p and %p share an object", taxes[0], taxes[1], taxes[2])
	}

	// A rebound slot drops its denial: with every binding in one slot,
	// a request of p2 rebinds it, and p1's next denial is a new shared
	// one.
	e.bindMask = 0
	grant(t, e, bankReq("frank", "Teller", "HandleCash", "York", "p1")) // binds p1 to slot 0
	before := deny(t, e, auditor("alice", "York", "p1"))
	grant(t, e, bankReq("frank", "Teller", "HandleCash", "York", "p2"))
	after := []*Decision{deny(t, e, auditor("alice", "York", "p1")), deny(t, e, auditor("bob", "York", "p1"))}
	if after[0] == before || after[1] != after[0] {
		t.Errorf("p1's denial before a rebind is %p, after it %p and %p; want a new shared one after it",
			before, after[0], after[1])
	}
	checkDenialText(t, after[1].Denial, "MMER[0]", "Branch=*, Period=p1", "holds 1 conflicting role(s)")
}

// denialsConcurrently: deciders of two engines are handed their
// engine's shared denial, read its text and fields, and decide grants
// and advisories in its period between them; under -race, no access to
// the shared denial races: its first readers render its text once,
// under its sync.Once, and nothing else writes it.
func denialsConcurrently(t *testing.T) {
	const deciders, requests = 4, 50
	engines := make([]*Engine, 2)
	shared := make([]*Decision, len(engines))
	for i := range engines {
		engines[i], _ = newEngine(t, append(bankPolicies(), taxPolicies()...))
		grant(t, engines[i], bankReq("alice", "Teller", "HandleCash", "York", "p"))
		shared[i] = deny(t, engines[i], bankReq("alice", "Auditor", "Audit", "York", "p"))
	}
	copied := *shared[0].Denial
	want := copied.Error() // a copy's: the deciders are the shared denials' first readers
	var wg sync.WaitGroup
	errs := make(chan error, deciders)
	for g := range deciders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := engines[g%len(engines)]
			for i := range requests {
				user := fmt.Sprintf("g%d-u%d", g, i)
				if d, err := e.Evaluate(bankReq(user, "Teller", "HandleCash", "Leeds", "p")); err != nil || d.Effect != Grant {
					errs <- fmt.Errorf("decider %d: %s's grant: %v, %v", g, user, d, err)
					return
				}
				for _, decide := range []func(Request) (*Decision, error){e.Evaluate, e.Peek} {
					d, err := decide(bankReq(user, "Auditor", "Audit", "York", "p"))
					if err != nil {
						errs <- err
						return
					}
					if d != shared[g%len(engines)] || d.Effect != Deny || d.Denial.Held != 1 || d.Denial.Error() != want {
						errs <- fmt.Errorf("decider %d, %s: %p reads %+v, %q; want the shared %p",
							g, user, d, *d, d.Denial.Error(), shared[g%len(engines)])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
