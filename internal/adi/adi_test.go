package adi

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

func rec(user, roles, op, target, ctx string) Record {
	var rs []rbac.RoleName
	if roles != "" {
		rs = []rbac.RoleName{rbac.RoleName(roles)}
	}
	return Record{
		User:      rbac.UserID(user),
		Roles:     rs,
		Operation: rbac.Operation(op),
		Target:    rbac.Object(target),
		Context:   bctx.MustParse(ctx),
		Time:      time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC),
	}
}

// stores returns the in-memory Recorder every behavioural test runs
// against; TestQuickStoreEquivalence holds it to the reference model.
func stores() map[string]Recorder {
	return map[string]Recorder{
		"indexed": NewStore(),
	}
}

func TestRecordValidate(t *testing.T) {
	if err := rec("u", "Teller", "op", "t", "Branch=York").Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := rec("", "Teller", "op", "t", "Branch=York")
	if err := bad.Validate(); err == nil {
		t.Error("empty user accepted")
	}
	wild := rec("u", "Teller", "op", "t", "Branch=*")
	if err := wild.Validate(); err == nil {
		t.Error("wildcard context accepted")
	}
}

func TestAppendAndQuery(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			if err := s.Append(
				rec("alice", "Teller", "HandleCash", "till", "Branch=York, Period=2006"),
				rec("bob", "Auditor", "Audit", "ledger", "Branch=Leeds, Period=2006"),
			); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d", s.Len())
			}
			pattern := bctx.MustParse("Branch=*, Period=2006")
			ok, err := s.UserHasRole("alice", pattern, "Teller")
			if err != nil || !ok {
				t.Errorf("alice Teller in pattern: %v %v", ok, err)
			}
			ok, _ = s.UserHasRole("alice", pattern, "Auditor")
			if ok {
				t.Error("alice should not have Auditor history")
			}
			ok, _ = s.UserHasRole("bob", pattern, "Auditor")
			if !ok {
				t.Error("bob Auditor history missing")
			}
			// Pattern restricted to one branch excludes the other.
			york := bctx.MustParse("Branch=York, Period=2006")
			ok, _ = s.UserHasRole("bob", york, "Auditor")
			if ok {
				t.Error("bob's Leeds record matched a York pattern")
			}
			ok, _ = s.UserHasPrivilege("alice", pattern, rbac.Permission{Operation: "HandleCash", Object: "till"})
			if !ok {
				t.Error("alice privilege history missing")
			}
			ok, _ = s.UserHasPrivilege("alice", pattern, rbac.Permission{Operation: "HandleCash", Object: "other"})
			if ok {
				t.Error("privilege matched wrong target")
			}
		})
	}
}

func TestCountsAndContextActive(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			if ok, _ := s.ContextActive(bctx.Universal); ok {
				t.Error("empty store reports active context")
			}
			if err := s.Append(
				rec("alice", "Teller", "approve", "check", "P=1"),
				rec("alice", "Teller", "approve", "check", "P=1"),
				rec("alice", "Teller", "approve", "check", "P=2"),
			); err != nil {
				t.Fatal(err)
			}
			p1 := bctx.MustParse("P=1")
			perm := rbac.Permission{Operation: "approve", Object: "check"}
			if n, _ := s.CountUserPrivilege("alice", p1, perm, 0); n != 2 {
				t.Errorf("CountUserPrivilege uncapped = %d, want 2", n)
			}
			if n, _ := s.CountUserPrivilege("alice", p1, perm, 1); n != 1 {
				t.Errorf("CountUserPrivilege capped = %d, want 1", n)
			}
			if n, _ := s.CountUserRole("alice", bctx.Universal, "Teller", 0); n != 3 {
				t.Errorf("CountUserRole = %d, want 3", n)
			}
			if n, _ := s.CountUserRole("bob", bctx.Universal, "Teller", 0); n != 0 {
				t.Errorf("CountUserRole other user = %d", n)
			}
			if ok, _ := s.ContextActive(p1); !ok {
				t.Error("P=1 should be active")
			}
			if ok, _ := s.ContextActive(bctx.MustParse("P=3")); ok {
				t.Error("P=3 should not be active")
			}
			if ok, _ := s.ContextActive(bctx.MustParse("P=*")); !ok {
				t.Error("P=* should match active instances")
			}
			if _, err := s.PurgeContext(p1); err != nil {
				t.Fatal(err)
			}
			if ok, _ := s.ContextActive(p1); ok {
				t.Error("P=1 still active after purge")
			}
			if ok, _ := s.ContextActive(bctx.MustParse("P=2")); !ok {
				t.Error("P=2 should survive the purge")
			}
		})
	}
}

func TestStoreContextIndexAfterUserPurges(t *testing.T) {
	s := NewStore()
	if err := s.Append(
		rec("alice", "R", "op", "t", "P=1"),
		rec("bob", "R", "op", "t", "P=1"),
	); err != nil {
		t.Fatal(err)
	}
	s.PurgeUser("alice")
	if ok, _ := s.ContextActive(bctx.MustParse("P=1")); !ok {
		t.Error("P=1 should remain active while bob's record exists")
	}
	s.PurgeUser("bob")
	if ok, _ := s.ContextActive(bctx.MustParse("P=1")); ok {
		t.Error("P=1 should be inactive after both purges")
	}
}

func TestAppendAtomicOnInvalid(t *testing.T) {
	opens := map[string]func(*testing.T) Recorder{
		"indexed": func(*testing.T) Recorder { return NewStore() },
		"durable": func(t *testing.T) Recorder { return openDurable(t, t.TempDir()) },
	}
	appends := map[string]func(Recorder, ...Record) error{
		"Append":    Recorder.Append,
		"AppendCtx": func(s Recorder, recs ...Record) error { return s.AppendCtx(context.Background(), recs...) },
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			for how, appendTo := range appends {
				t.Run(how, func(t *testing.T) {
					s := open(t)
					err := appendTo(s,
						rec("alice", "Teller", "op", "t", "Branch=York"),
						rec("", "Teller", "op", "t", "Branch=York"), // invalid
					)
					if err == nil {
						t.Fatal("expected validation error")
					}
					if s.Len() != 0 {
						t.Errorf("partial append: Len = %d", s.Len())
					}
				})
			}
		})
	}
}

func TestPurgeContextSubtree(t *testing.T) {
	for name, s := range stores() {
		t.Run(name, func(t *testing.T) {
			if err := s.Append(
				rec("alice", "Teller", "op", "t", "Branch=York, Period=2006"),
				rec("alice", "Teller", "op", "t", "Branch=York, Period=2006, Till=4"),
				rec("alice", "Teller", "op", "t", "Branch=York, Period=2007"),
				rec("bob", "Auditor", "op", "t", "Branch=Leeds, Period=2006"),
			); err != nil {
				t.Fatal(err)
			}
			// Purge the 2006 period across all branches — the Example 1
			// CommitAudit semantics with policy context "Branch=*, Period=2006".
			n, err := s.PurgeContext(bctx.MustParse("Branch=*, Period=2006"))
			if err != nil {
				t.Fatal(err)
			}
			if n != 3 {
				t.Fatalf("purged %d, want 3", n)
			}
			if s.Len() != 1 {
				t.Errorf("Len after purge = %d", s.Len())
			}
			ok, _ := s.UserHasRole("alice", bctx.Universal, "Teller")
			if !ok {
				t.Error("2007 record should survive")
			}
			ok, _ = s.UserHasRole("bob", bctx.Universal, "Auditor")
			if ok {
				t.Error("bob's 2006 record should be purged")
			}
		})
	}
}

func TestRolesSliceIsCopied(t *testing.T) {
	s := NewStore()
	roles := []rbac.RoleName{"Teller"}
	r := Record{User: "u", Roles: roles, Operation: "op", Target: "t",
		Context: bctx.MustParse("A=1"), Time: time.Now()}
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
	roles[0] = "Auditor" // mutate caller's slice
	ok, _ := s.UserHasRole("u", bctx.Universal, "Teller")
	if !ok {
		t.Error("store shared the caller's roles slice")
	}
}

func TestPurgeUserAndBefore(t *testing.T) {
	s := NewStore()
	old := Record{User: "alice", Roles: []rbac.RoleName{"Teller"}, Operation: "op", Target: "t",
		Context: bctx.MustParse("A=1"), Time: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)}
	newer := Record{User: "alice", Roles: []rbac.RoleName{"Teller"}, Operation: "op", Target: "t",
		Context: bctx.MustParse("A=2"), Time: time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)}
	bobs := Record{User: "bob", Roles: []rbac.RoleName{"Auditor"}, Operation: "op", Target: "t",
		Context: bctx.MustParse("A=1"), Time: time.Date(2005, 6, 1, 0, 0, 0, 0, time.UTC)}
	if err := s.Append(old, newer, bobs); err != nil {
		t.Fatal(err)
	}
	if n := s.PurgeBefore(time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)); n != 2 {
		t.Errorf("PurgeBefore removed %d, want 2", n)
	}
	if s.Len() != 1 || s.Users() != 1 {
		t.Errorf("Len=%d Users=%d after PurgeBefore", s.Len(), s.Users())
	}
	if n := s.PurgeUser("alice"); n != 1 {
		t.Errorf("PurgeUser removed %d, want 1", n)
	}
	if s.Len() != 0 {
		t.Errorf("Len=%d after PurgeUser", s.Len())
	}
}

func TestUserRecordsAndAll(t *testing.T) {
	s := NewStore()
	if err := s.Append(
		rec("bob", "Auditor", "op1", "t", "A=1"),
		rec("alice", "Teller", "op2", "t", "A=1"),
		rec("alice", "Teller", "op3", "t", "A=2"),
	); err != nil {
		t.Fatal(err)
	}
	got := s.UserRecords("alice", bctx.MustParse("A=1"))
	if len(got) != 1 || got[0].Operation != "op2" {
		t.Errorf("UserRecords = %v", got)
	}
	all := s.All()
	if len(all) != 3 {
		t.Fatalf("All = %d records", len(all))
	}
	// Sorted by user: alice's two records first.
	if all[0].User != "alice" || all[2].User != "bob" {
		t.Errorf("All not ordered by user: %v", all)
	}
	s.Reset()
	if s.Len() != 0 || len(s.All()) != 0 {
		t.Error("Reset did not clear the store")
	}
}

func TestConcurrentStore(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", g)
			for i := 0; i < 100; i++ {
				ctx := fmt.Sprintf("A=%d", i%5)
				if err := s.Append(rec(user, "R", "op", "t", ctx)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.UserHasRole(rbac.UserID(user), bctx.Universal, "R"); err != nil {
					t.Error(err)
					return
				}
				if i%20 == 19 {
					if _, err := s.PurgeContext(bctx.MustParse("A=0")); err != nil {
						t.Error(err)
						return
					}
				}
				if i%10 == 9 {
					// Activations older than every record, so the age
					// purge clears them and keeps the records.
					if _, err := activate(s, eqEpoch.AddDate(-1, 0, 0), bctx.MustParse(fmt.Sprintf("B=%d", i%3))); err != nil {
						t.Error(err)
						return
					}
					_ = s.activations()
					s.PurgeBefore(eqEpoch)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Error("expected surviving records")
	}
}

// Property: the indexed store and the reference model (internal/refmodel)
// answer every query identically under random workloads, and agree on
// everything observable — Len, users, records, distinct instances,
// activity of every pattern — after every single operation, management
// purges, activations and releases included.
func TestQuickStoreEquivalence(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		idx, lin := NewStore(), newReference()
		for i := 0; i < int(n); i++ {
			err := mutate(r, i, idx, lin)
			if err == nil {
				err = sameState(idx, lin)
			}
			if err == nil {
				err = sameAnswers(r, idx, lin)
			}
			if err != nil {
				t.Logf("seed %d, operation %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
