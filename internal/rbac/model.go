package rbac

import (
	"fmt"
	"sort"
	"sync"
)

// Model is an ANSI RBAC database: users, roles, permissions, the UA and
// PA relations, a role hierarchy, SSD/DSD constraint sets and live
// sessions. The zero value is not usable; use NewModel.
//
// Model is safe for concurrent use.
type Model struct {
	mu sync.RWMutex

	roles map[RoleName]bool
	users map[UserID]bool

	// ua maps user -> directly assigned roles.
	ua map[UserID]map[RoleName]bool
	// pa maps role -> directly granted permissions.
	pa map[RoleName]map[Permission]bool
	// juniors maps a role to the roles it inherits from (r -> juniors:
	// r's members also get the juniors' permissions).
	juniors map[RoleName]map[RoleName]bool

	ssd []SoDSet
	dsd []SoDSet

	sessions map[SessionID]*Session
	nextSess uint64
}

// NewModel returns an empty RBAC model.
func NewModel() *Model {
	return &Model{
		roles:    make(map[RoleName]bool),
		users:    make(map[UserID]bool),
		ua:       make(map[UserID]map[RoleName]bool),
		pa:       make(map[RoleName]map[Permission]bool),
		juniors:  make(map[RoleName]map[RoleName]bool),
		sessions: make(map[SessionID]*Session),
	}
}

// AddRole creates a role. It fails with ErrExists if present.
func (m *Model) AddRole(r RoleName) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.roles[r] {
		return fmt.Errorf("%w: role %q", ErrExists, r)
	}
	m.roles[r] = true
	return nil
}

// AddUser creates a user. It fails with ErrExists if present.
func (m *Model) AddUser(u UserID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.users[u] {
		return fmt.Errorf("%w: user %q", ErrExists, u)
	}
	m.users[u] = true
	return nil
}

// Roles returns all role names, sorted.
func (m *Model) Roles() []RoleName {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]RoleName, 0, len(m.roles))
	for r := range m.roles {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Users returns all user IDs, sorted.
func (m *Model) Users() []UserID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]UserID, 0, len(m.users))
	for u := range m.users {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddInheritance records that senior inherits junior: all permissions of
// junior become available to members of senior, and users assigned
// senior are authorized for junior. It rejects unknown roles, self
// edges and edges that would create a cycle.
func (m *Model) AddInheritance(senior, junior RoleName) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.roles[senior] {
		return fmt.Errorf("%w: role %q", ErrNotFound, senior)
	}
	if !m.roles[junior] {
		return fmt.Errorf("%w: role %q", ErrNotFound, junior)
	}
	if senior == junior {
		return fmt.Errorf("%w: %q inherits itself", ErrCycle, senior)
	}
	// Reject if junior already (transitively) inherits senior.
	if m.inheritsLocked(junior, senior) {
		return fmt.Errorf("%w: %q -> %q", ErrCycle, senior, junior)
	}
	js := m.juniors[senior]
	if js == nil {
		js = make(map[RoleName]bool)
		m.juniors[senior] = js
	}
	js[junior] = true
	return nil
}

// inheritsLocked reports whether a transitively inherits b.
func (m *Model) inheritsLocked(a, b RoleName) bool {
	if a == b {
		return true
	}
	seen := map[RoleName]bool{a: true}
	stack := []RoleName{a}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := range m.juniors[r] {
			if j == b {
				return true
			}
			if !seen[j] {
				seen[j] = true
				stack = append(stack, j)
			}
		}
	}
	return false
}

// closureLocked returns the role set reachable from the given roles via
// inheritance, including the roles themselves.
func (m *Model) closureLocked(roles map[RoleName]bool) map[RoleName]bool {
	out := make(map[RoleName]bool, len(roles))
	var stack []RoleName
	for r := range roles {
		out[r] = true
		stack = append(stack, r)
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := range m.juniors[r] {
			if !out[j] {
				out[j] = true
				stack = append(stack, j)
			}
		}
	}
	return out
}

// AssignRole adds (user, role) to UA. The assignment is refused with
// ErrSSDViolation if the user's authorized role set (assigned roles plus
// all inherited juniors, per the ANSI hierarchical-SSD semantics) would
// then contain Cardinality or more roles of any SSD set.
func (m *Model) AssignRole(u UserID, r RoleName) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.users[u] {
		return fmt.Errorf("%w: user %q", ErrNotFound, u)
	}
	if !m.roles[r] {
		return fmt.Errorf("%w: role %q", ErrNotFound, r)
	}
	assigned := m.ua[u]
	if assigned == nil {
		assigned = make(map[RoleName]bool)
		m.ua[u] = assigned
	}
	if assigned[r] {
		return fmt.Errorf("%w: user %q role %q", ErrExists, u, r)
	}
	assigned[r] = true
	authorized := m.closureLocked(assigned)
	for _, set := range m.ssd {
		if n := set.countMembers(authorized); n >= set.Cardinality {
			delete(assigned, r)
			return fmt.Errorf("%w: assigning %q to %q gives %d roles of set %q (forbidden cardinality %d)",
				ErrSSDViolation, r, u, n, set.Name, set.Cardinality)
		}
	}
	return nil
}

// DeassignRole removes (user, role) from UA. Active sessions are not
// affected (the ANSI standard leaves this to the implementation; the
// MSoD paper's point is precisely that assignment-time checks are
// insufficient, so we keep the baseline minimal and faithful).
func (m *Model) DeassignRole(u UserID, r RoleName) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ua[u][r] {
		return fmt.Errorf("%w: user %q role %q", ErrNotFound, u, r)
	}
	delete(m.ua[u], r)
	return nil
}

// AssignedRoles returns the roles directly assigned to the user, sorted.
func (m *Model) AssignedRoles(u UserID) []RoleName {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return sortedRoles(m.ua[u])
}

// AuthorizedRoles returns the user's assigned roles plus every role
// inherited from them, sorted.
func (m *Model) AuthorizedRoles(u UserID) []RoleName {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return sortedRoles(m.closureLocked(m.ua[u]))
}

// Closure returns the given roles plus every role they transitively
// inherit, sorted. The MSoD engine uses it to make MMER constraints
// hierarchy-aware: activating a senior role conflicts like activating
// its juniors.
func (m *Model) Closure(roles []RoleName) []RoleName {
	m.mu.RLock()
	defer m.mu.RUnlock()
	set := make(map[RoleName]bool, len(roles))
	for _, r := range roles {
		set[r] = true
	}
	return sortedRoles(m.closureLocked(set))
}

// GrantPermission adds (role, permission) to PA.
func (m *Model) GrantPermission(r RoleName, p Permission) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.roles[r] {
		return fmt.Errorf("%w: role %q", ErrNotFound, r)
	}
	ps := m.pa[r]
	if ps == nil {
		ps = make(map[Permission]bool)
		m.pa[r] = ps
	}
	if ps[p] {
		return fmt.Errorf("%w: role %q permission %v", ErrExists, r, p)
	}
	ps[p] = true
	return nil
}

// RevokePermission removes (role, permission) from PA.
func (m *Model) RevokePermission(r RoleName, p Permission) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.pa[r][p] {
		return fmt.Errorf("%w: role %q permission %v", ErrNotFound, r, p)
	}
	delete(m.pa[r], p)
	return nil
}

// RolePermissions returns the permissions available to members of the
// role: those granted directly and those of every inherited junior.
func (m *Model) RolePermissions(r RoleName) []Permission {
	m.mu.RLock()
	defer m.mu.RUnlock()
	closure := m.closureLocked(map[RoleName]bool{r: true})
	set := make(map[Permission]bool)
	for cr := range closure {
		for p := range m.pa[cr] {
			set[p] = true
		}
	}
	out := make([]Permission, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// rolesPermitLocked reports whether any of the given roles (or their
// inherited juniors) holds the permission.
func (m *Model) rolesPermitLocked(roles map[RoleName]bool, p Permission) bool {
	for cr := range m.closureLocked(roles) {
		if m.pa[cr][p] {
			return true
		}
	}
	return false
}

// RolesPermit reports whether any of the given roles grants the
// permission, considering inheritance. This is the stateless role-based
// check the PDP uses when it is handed validated roles rather than a
// session, once per decision, so it builds no role set: seen is both
// the visited list and the work queue of a walk down the hierarchy,
// and stays on the stack for hierarchies of ordinary size.
func (m *Model) RolesPermit(roles []RoleName, p Permission) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var buf [16]RoleName
	seen := append(buf[:0], roles...)
	for i := 0; i < len(seen); i++ {
		if m.pa[seen[i]][p] {
			return true
		}
	juniors:
		for j := range m.juniors[seen[i]] {
			for _, r := range seen {
				if r == j {
					continue juniors
				}
			}
			seen = append(seen, j)
		}
	}
	return false
}

// AddSSD registers a static SoD constraint set. Existing UA assignments
// are checked; registration fails if any user already violates the set.
func (m *Model) AddSSD(set SoDSet) error {
	if err := set.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for u, assigned := range m.ua {
		if n := set.countMembers(m.closureLocked(assigned)); n >= set.Cardinality {
			return fmt.Errorf("%w: user %q already authorized for %d roles of new set %q",
				ErrSSDViolation, u, n, set.Name)
		}
	}
	m.ssd = append(m.ssd, set)
	return nil
}

// AddDSD registers a dynamic SoD constraint set, enforced at role
// activation time within each session.
func (m *Model) AddDSD(set SoDSet) error {
	if err := set.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dsd = append(m.dsd, set)
	return nil
}

// SSDSets returns the registered static constraint sets.
func (m *Model) SSDSets() []SoDSet {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]SoDSet(nil), m.ssd...)
}

// DSDSets returns the registered dynamic constraint sets.
func (m *Model) DSDSets() []SoDSet {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]SoDSet(nil), m.dsd...)
}

func sortedRoles(set map[RoleName]bool) []RoleName {
	out := make([]RoleName, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
