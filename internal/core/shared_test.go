package core

import (
	"fmt"
	"sync"
	"testing"

	"msod/internal/bctx"
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

	// A denial and a grant naming instances are objects of their own.
	fresh := map[string][2]*Decision{
		"denials": {
			deny(t, e1, bankReq("alice", "Auditor", "Audit", "York", "p1")),
			deny(t, e1, bankReq("bob", "Auditor", "Audit", "Leeds", "p1")),
		},
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
