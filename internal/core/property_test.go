package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/rbac"
)

// TestQuickSafetyInvariant drives random request streams through an
// engine with one MMER and one MMEP policy and asserts the paper's
// safety property after every decision: within any bound business
// context, no user's *granted* history ever supports ForbiddenCardinality
// or more rule positions.
//
// The invariant is computed from scratch from a shadow log of granted
// requests, independently of the engine's own store, so a bookkeeping bug
// in either place fails the test.
func TestQuickSafetyInvariant(t *testing.T) {
	roles := []rbac.RoleName{"Teller", "Auditor", "Clerk"}
	ops := []rbac.Operation{"approve", "combine", "other"}
	users := []rbac.UserID{"u0", "u1"}
	contexts := []string{"P=a", "P=b", "P=a, Q=x"}

	mmer := MMERRule{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}
	approve := rbac.Permission{Operation: "approve", Object: "t"}
	combine := rbac.Permission{Operation: "combine", Object: "t"}
	mmep := MMEPRule{Privileges: []rbac.Permission{approve, approve, combine}, Cardinality: 2}
	policyCtx := bctx.MustParse("P=!")

	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		store := adi.NewStore()
		e, err := NewEngine(store, []Policy{{
			Context: policyCtx,
			MMER:    []MMERRule{mmer},
			MMEP:    []MMEPRule{mmep},
		}}, WithClock(func() time.Time { return time.Unix(0, 0) }))
		if err != nil {
			return false
		}

		// Shadow history: per user, per bound-context key.
		type hist struct {
			roles map[rbac.RoleName]bool
			privs map[rbac.Permission]int
		}
		shadow := map[string]*hist{}
		get := func(u rbac.UserID, key string) *hist {
			k := string(u) + "|" + key
			h := shadow[k]
			if h == nil {
				h = &hist{roles: map[rbac.RoleName]bool{}, privs: map[rbac.Permission]int{}}
				shadow[k] = h
			}
			return h
		}

		for i := 0; i < int(steps); i++ {
			req := Request{
				User:      users[r.Intn(len(users))],
				Roles:     []rbac.RoleName{roles[r.Intn(len(roles))]},
				Operation: ops[r.Intn(len(ops))],
				Target:    "t",
				Context:   bctx.MustParse(contexts[r.Intn(len(contexts))]),
			}
			dec, err := e.Evaluate(req)
			if err != nil {
				return false
			}
			if dec.Effect != Grant {
				continue
			}
			// Record the grant in the shadow under the bound context (the
			// first component value of the request context).
			bound, err := bctx.Bind(policyCtx, req.Context)
			if err != nil {
				return false
			}
			h := get(req.User, bound.Key())
			for _, role := range req.Roles {
				h.roles[role] = true
			}
			h.privs[rbac.Permission{Operation: req.Operation, Object: req.Target}]++

			// Invariant 1 (MMER): a user's granted history never contains
			// the full forbidden role set in one bound context.
			n := 0
			for _, role := range mmer.Roles {
				if h.roles[role] {
					n++
				}
			}
			if n >= mmer.Cardinality {
				return false
			}
			// Invariant 2 (MMEP): the history supports fewer than m rule
			// positions (multiset semantics: each position needs its own
			// granted execution).
			positions := map[rbac.Permission]int{}
			for _, p := range mmep.Privileges {
				positions[p]++
			}
			supported := 0
			for p, nPos := range positions {
				got := h.privs[p]
				if got > nPos {
					got = nPos
				}
				supported += got
			}
			if supported >= mmep.Cardinality {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentEvaluateAtomicity fires the same conflicting pair of
// requests from many goroutines; the engine's internal serialisation
// must guarantee that per user and context instance, at most one of the
// two conflicting roles is ever granted.
func TestConcurrentEvaluateAtomicity(t *testing.T) {
	store := adi.NewStore()
	e, err := NewEngine(store, bankPolicies())
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	grants := make([][2]int, goroutines) // per-user [teller, auditor] grant counts
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", g%4) // users shared across goroutines
			for i := 0; i < 25; i++ {
				role := "Teller"
				slot := 0
				if (g+i)%2 == 1 {
					role = "Auditor"
					slot = 1
				}
				dec, err := e.Evaluate(bankReq(user, role, "op", "York", "2006"))
				if err != nil {
					t.Error(err)
					return
				}
				if dec.Effect == Grant {
					grants[g][slot]++
				}
			}
		}(g)
	}
	wg.Wait()

	// Verify from the store: no user has both Teller and Auditor records
	// in the 2006 period.
	pattern := bctx.MustParse("Branch=*, Period=2006")
	for u := 0; u < 4; u++ {
		user := rbac.UserID(fmt.Sprintf("user%d", u))
		hasT, _ := store.UserHasRole(user, pattern, "Teller")
		hasA, _ := store.UserHasRole(user, pattern, "Auditor")
		if hasT && hasA {
			t.Errorf("user%d holds both conflicting roles in one period", u)
		}
	}
}

// TestConcurrentCommitBuffer mixes Evaluate, Peek and Apply from many
// goroutines over two policies that both record (cashPolicies), so each
// grant's records pass through the engine's one commit buffer, which
// decisions share one after another. Every granted decision's two
// records must be in the store under its own user, with its own role,
// operation and context. A denial, whose first policy has put a record
// in the buffer before the second refuses, and an advisory leave
// nothing; a record an Apply imports is there as imported. Each
// request's Roles slice is overwritten once its decision returns, which
// changes nothing retained.
func TestConcurrentCommitBuffer(t *testing.T) {
	store := adi.NewStore()
	e, err := NewEngine(store, cashPolicies())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 8, 40
	granted := make([][]Request, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				user := fmt.Sprintf("g%d.%d", g, i)
				branch, period := fmt.Sprintf("b%d", g%3), fmt.Sprintf("p%d", i%4)
				role, op, other, otherOp := "Teller", "HandleCash", "Auditor", "Audit"
				if i%2 == 1 {
					role, op, other, otherOp = other, otherOp, role, op
				}

				if dec, err := e.Peek(bankReq(user+".peek", role, op, branch, period)); err != nil || dec.Effect != Grant || dec.Recorded != 2 {
					t.Errorf("Peek for %s: %+v, %v; want a grant recording 2", user, dec, err)
					return
				}
				req := bankReq(user, role, op, branch, period)
				if dec, err := e.Evaluate(req); err != nil || dec.Effect != Grant || dec.Recorded != 2 {
					t.Errorf("Evaluate for %s: %+v, %v; want a grant recording 2", user, dec, err)
					return
				}
				kept := req
				kept.Roles = []rbac.RoleName{req.Roles[0]}
				granted[g] = append(granted[g], kept)
				req.Roles[0] = "Overwritten"

				// The MMEP policy opens "Branch=x, Period=p" in the
				// buffer; the MMER policy then refuses the other role.
				if dec, err := e.Evaluate(bankReq(user, other, otherOp, "x", period)); err != nil || dec.Effect != Deny {
					t.Errorf("conflicting Evaluate for %s: %+v, %v; want a denial", user, dec, err)
					return
				}

				imported := adi.Record{
					User: rbac.UserID(user + ".import"), Roles: []rbac.RoleName{"Clerk"}, Operation: "Import", Target: "t",
					Context: bctx.MustParse("Branch=import, Period=" + period), Time: time.Now(),
				}
				ops := []adi.Op{
					{Kind: adi.OpActivate, Bound: bctx.MustParse(fmt.Sprintf("Branch=a, Period=q%d.%d", g, i))},
					{Kind: adi.OpRecord, Records: []adi.Record{imported}},
				}
				if err := e.Apply(ops, func(adi.Op, adi.Effect) {}); err != nil {
					t.Errorf("Apply for %s: %v", user, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	n := 0
	for _, reqs := range granted {
		for _, req := range reqs {
			n++
			recs := store.UserRecords(req.User, bctx.Universal)
			if len(recs) != 2 {
				t.Errorf("%s holds %d records, want the 2 of its grant: %v", req.User, len(recs), recs)
				continue
			}
			for _, r := range recs {
				if r.User != req.User || len(r.Roles) != 1 || r.Roles[0] != req.Roles[0] ||
					r.Operation != req.Operation || r.Target != req.Target || !r.Context.Equal(req.Context) {
					t.Errorf("%s's record %v, want %s's %s@%s in %q as %s", req.User, r, req.User, req.Operation, req.Target, req.Context, req.Roles[0])
				}
			}
			if recs := store.UserRecords(req.User+".peek", bctx.Universal); len(recs) != 0 {
				t.Errorf("%s.peek, only ever advised, holds %v", req.User, recs)
			}
			if recs := store.UserRecords(req.User+".import", bctx.Universal); len(recs) != 1 {
				t.Errorf("%s.import holds %v, want the one imported record", req.User, recs)
			}
		}
	}
	if n != goroutines*rounds {
		t.Fatalf("%d grants recorded, want %d", n, goroutines*rounds)
	}
	if got, want := store.Len(), 3*n; got != want {
		t.Errorf("store holds %d records, want %d: two per grant, one per import", got, want)
	}
}

// TestQuickLastStepAlwaysClearsInstance: whatever happened before, a
// granted last step leaves zero records in the bound instance.
func TestQuickLastStepAlwaysClearsInstance(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		store := adi.NewStore()
		e, err := NewEngine(store, bankPolicies())
		if err != nil {
			return false
		}
		users := []string{"a", "b", "c"}
		branches := []string{"York", "Leeds"}
		for i := 0; i < int(steps); i++ {
			role := "Teller"
			if r.Intn(2) == 0 {
				role = "Auditor"
			}
			_, err := e.Evaluate(bankReq(users[r.Intn(3)], role, "op", branches[r.Intn(2)], "2006"))
			if err != nil {
				return false
			}
		}
		dec, err := e.Evaluate(bankReq("closer", "Auditor", "CommitAudit", "York", "2006"))
		if err != nil || dec.Effect != Grant {
			// CommitAudit may be denied if "closer" already told in 2006 —
			// not possible here since closer is fresh.
			return false
		}
		active, err := store.ContextActive(bctx.MustParse("Branch=*, Period=2006"))
		return err == nil && !active
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
