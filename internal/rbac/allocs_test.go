package rbac

import (
	"testing"

	"msod/internal/race"
)

// TestRolesPermitAllocs: the per-decision RBAC check builds no role
// set, with or without a hierarchy to walk, hit or miss.
func TestRolesPermitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := NewModel()
	for _, r := range []RoleName{"Employee", "Manager", "Director", "Teller"} {
		mustAdd(t, m.AddRole(r))
	}
	mustAdd(t, m.AddInheritance("Manager", "Employee"))
	mustAdd(t, m.AddInheritance("Director", "Manager"))
	mustAdd(t, m.GrantPermission("Employee", Permission{"Enter", "building"}))
	mustAdd(t, m.GrantPermission("Teller", Permission{"HandleCash", "till"}))

	for _, tc := range []struct {
		roles []RoleName
		perm  Permission
		want  bool
	}{
		{[]RoleName{"Teller"}, Permission{"HandleCash", "till"}, true},
		{[]RoleName{"Teller"}, Permission{"Audit", "ledger"}, false},
		{[]RoleName{"Teller", "Director"}, Permission{"Enter", "building"}, true},
		{[]RoleName{"Director", "Manager"}, Permission{"Audit", "ledger"}, false},
	} {
		got := testing.AllocsPerRun(100, func() {
			if m.RolesPermit(tc.roles, tc.perm) != tc.want {
				t.Fatalf("RolesPermit(%v, %v) = %v", tc.roles, tc.perm, !tc.want)
			}
		})
		if got != 0 {
			t.Errorf("RolesPermit(%v, %v): %v allocations, budget 0", tc.roles, tc.perm, got)
		}
	}
}
