package adi

import (
	"fmt"
	"testing"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

// TestOneRoleRecordsShareTheirRole: every retained record of one role
// carries the store's one slice of that role, whatever slice the caller
// appended, and that slice has no room to grow into: N records of a
// role leave one entry in the role table.
func TestOneRoleRecordsShareTheirRole(t *testing.T) {
	const n = 100
	s := NewStore()
	for i := 0; i < n; i++ {
		for _, role := range []string{"Teller", "Auditor"} {
			if err := s.Append(rec(fmt.Sprintf("u%d", i), role, "op", "t", "Branch=York, Period=2006")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(s.roles) != 2 {
		t.Fatalf("%d role table entries after %d records of two roles, want 2", len(s.roles), 2*n)
	}
	shared := map[rbac.RoleName]*rbac.RoleName{}
	for _, r := range s.All() {
		if len(r.Roles) != 1 || cap(r.Roles) != 1 {
			t.Fatalf("%v: Roles len %d cap %d, want 1 and 1", r, len(r.Roles), cap(r.Roles))
		}
		role := r.Roles[0]
		if shared[role] == nil {
			shared[role] = &r.Roles[0]
		} else if shared[role] != &r.Roles[0] {
			t.Fatalf("%v does not share the store's %q slice", r, role)
		}
	}
	if len(shared) != 2 {
		t.Fatalf("roles retained: %v, want Teller and Auditor", shared)
	}
}

// TestMultiRoleSetsAreCopied: a record of two roles keeps a copy of its
// own, not the caller's slice nor another record's.
func TestMultiRoleSetsAreCopied(t *testing.T) {
	s := NewStore()
	roles := []rbac.RoleName{"Teller", "Clerk"}
	a := Record{User: "a", Roles: roles, Operation: "op", Target: "t", Context: bctx.MustParse("A=1")}
	b := a
	b.User = "b"
	if err := s.Append(a, b); err != nil {
		t.Fatal(err)
	}
	ra, rb := s.UserRecords("a", bctx.Universal), s.UserRecords("b", bctx.Universal)
	if len(ra) != 1 || len(rb) != 1 {
		t.Fatalf("a holds %v, b holds %v; want one record each", ra, rb)
	}
	if &ra[0].Roles[0] == &roles[0] || &rb[0].Roles[0] == &roles[0] {
		t.Error("a two-role record shares the caller's slice")
	}
	if &ra[0].Roles[0] == &rb[0].Roles[0] {
		t.Error("two records share one copy of a two-role set")
	}
	if len(s.roles) != 0 {
		t.Errorf("two-role records left %d role table entries, want 0", len(s.roles))
	}
}

// TestOverwrittenCallerRolesChangeNothing: once Append returns, the
// caller may overwrite the Roles it passed — of one role or of two —
// and nothing the store retained changes: not in a Store, not in a
// DurableStore, not after that one is reopened from its WAL, nor after
// it is reopened from its compacted snapshot. Both reopens go through
// the same role table: one entry per role name.
func TestOverwrittenCallerRolesChangeNothing(t *testing.T) {
	one := []rbac.RoleName{"Teller"}
	two := []rbac.RoleName{"Teller", "Clerk"}
	appendAndOverwrite := func(t *testing.T, store Recorder) {
		t.Helper()
		for i := 0; i < 3; i++ {
			one[0], two[0], two[1] = "Teller", "Teller", "Clerk"
			if err := store.Append(
				Record{User: "alice", Roles: one, Operation: "op", Target: "t", Context: bctx.MustParse("A=1")},
				Record{User: "bob", Roles: two, Operation: "op", Target: "t", Context: bctx.MustParse("A=1")},
			); err != nil {
				t.Fatal(err)
			}
			one[0], two[0], two[1] = "Auditor", "Auditor", "Auditor"
		}
	}
	check := func(t *testing.T, s *Store) {
		t.Helper()
		for user, want := range map[rbac.UserID][]rbac.RoleName{"alice": {"Teller"}, "bob": {"Teller", "Clerk"}} {
			recs := s.UserRecords(user, bctx.Universal)
			if len(recs) != 3 {
				t.Fatalf("%s holds %v, want 3 records", user, recs)
			}
			for _, r := range recs {
				if fmt.Sprint(r.Roles) != fmt.Sprint(want) {
					t.Errorf("%s's record %v, want roles %v", user, r, want)
				}
			}
		}
		if ok, _ := s.UserHasRole("alice", bctx.Universal, "Auditor"); ok {
			t.Error("alice holds Auditor, which was never appended")
		}
		if len(s.roles) != 1 {
			t.Errorf("%d role table entries, want 1 (Teller)", len(s.roles))
		}
	}

	t.Run("Store", func(t *testing.T) {
		s := NewStore()
		appendAndOverwrite(t, s)
		check(t, s)
	})
	t.Run("DurableStore", func(t *testing.T) {
		dir := t.TempDir()
		ds := openDurable(t, dir)
		appendAndOverwrite(t, ds)
		check(t, ds.mem)
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		ds = openDurable(t, dir)
		check(t, ds.mem)
		if err := ds.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		ds = openDurable(t, dir)
		if ds.WALOps() != 0 {
			t.Fatalf("%d WAL ops after a compaction, want the snapshot alone", ds.WALOps())
		}
		check(t, ds.mem)
	})
}
