// Package adi implements the Retained Access control Decision
// Information store of ISO 10181-3 as used by the MSoD paper (§4.1,
// §4.2): a record of previous *granted* access control decisions that the
// PDP consults to make history-dependent decisions.
//
// Each record is the six-tuple defined in §4.2:
//
//  1. user's ID,
//  2. user's activated role(s),
//  3. operation granted,
//  4. target accessed,
//  5. business context instance, and
//  6. time/date of the grant decision.
//
// Store, indexed by user ID, is the one in-memory implementation the
// daemons run, and DurableStore puts a write-ahead log under it.
// LinearStore, an unindexed scan, is the ablation baseline of
// experiment E4 and the reference the tests compare Store against.
// All three satisfy Recorder.
package adi

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

// Record is one retained-ADI entry: a previously granted decision.
type Record struct {
	// User is the requester's stable identifier.
	User rbac.UserID
	// Roles are the roles the user had activated for the granted request.
	Roles []rbac.RoleName
	// Operation is the granted operation.
	Operation rbac.Operation
	// Target is the object the operation was granted on.
	Target rbac.Object
	// Context is the concrete business context instance of the request.
	Context bctx.Name
	// Time is when the grant decision was made.
	Time time.Time
}

// HasRole reports whether the record lists the role.
func (r Record) HasRole(role rbac.RoleName) bool {
	for _, rr := range r.Roles {
		if rr == role {
			return true
		}
	}
	return false
}

// Privilege returns the record's (operation, target) pair.
func (r Record) Privilege() rbac.Permission {
	return rbac.Permission{Operation: r.Operation, Object: r.Target}
}

// String renders the record compactly for logs and diagnostics.
func (r Record) String() string {
	roles := make([]string, len(r.Roles))
	for i, rr := range r.Roles {
		roles[i] = string(rr)
	}
	return fmt.Sprintf("%s[%s] %s@%s ctx=%q %s",
		r.User, strings.Join(roles, ","), r.Operation, r.Target, r.Context, r.Time.Format(time.RFC3339))
}

// Validate checks that the record is storable: non-empty user and a
// concrete context instance.
func (r Record) Validate() error {
	if r.User == "" {
		return fmt.Errorf("adi: record has empty user ID")
	}
	if !r.Context.IsInstance() {
		return fmt.Errorf("adi: record context %q is not an instance", r.Context)
	}
	return nil
}

// Recorder is the query/update surface the MSoD engine needs from a
// retained-ADI implementation.
type Recorder interface {
	// Append stores granted-decision records. It is atomic: either all
	// records are stored or none.
	Append(recs ...Record) error
	// UserHasRole reports whether any record for the user whose context
	// instance falls within pattern lists the role.
	UserHasRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName) (bool, error)
	// UserHasPrivilege reports whether any record for the user whose
	// context instance falls within pattern granted the privilege.
	UserHasPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission) (bool, error)
	// CountUserRole counts records for the user within pattern that list
	// the role, stopping early at max (pass max <= 0 for no cap). The
	// multiset counting of §4.2 step 5.iii needs counts, not existence.
	CountUserRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName, max int) (int, error)
	// CountUserPrivilege counts records for the user within pattern that
	// granted the privilege, stopping early at max (pass max <= 0 for no
	// cap), for §4.2 step 6.iii.
	CountUserPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission, max int) (int, error)
	// ContextActive reports whether any record (for any user) has a
	// context instance within pattern — §4.2 step 3's "match the policy
	// business context against the business context instances stored in
	// the retained ADI".
	ContextActive(pattern bctx.Name) (bool, error)
	// PurgeContext deletes every record whose context instance is equal
	// or subordinate to pattern (step 7 of the §4.2 algorithm). It
	// returns the number of records removed.
	PurgeContext(pattern bctx.Name) (int, error)
	// Len returns the number of retained records.
	Len() int
}

// CtxAppender is the optional context-aware extension of Recorder: a
// store that implements it gets the decision's context (and so its
// obsv.Trace) on the commit path, letting it record sub-spans like the
// durable WAL round trip. The engine type-asserts once and falls back
// to plain Append for stores that don't.
type CtxAppender interface {
	AppendCtx(ctx context.Context, recs ...Record) error
}

// matchPattern reports whether the record's instance is within pattern.
func matchPattern(pattern bctx.Name, rec Record) bool {
	ok, err := bctx.MatchInstance(pattern, rec.Context)
	return err == nil && ok
}

// Store is the indexed in-memory retained ADI: records are bucketed by
// user ID so per-user history queries do not scan unrelated users, and a
// per-context-instance reference count answers ContextActive without
// scanning records. Store is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	byUser map[rbac.UserID][]Record
	// ctxRef counts live records per exact context-instance key, so
	// ContextActive only inspects distinct instances.
	ctxRef  map[string]int
	ctxName map[string]bctx.Name
	// ctxComp indexes distinct instances by each positional component:
	// "i|Type=Value" and "i|Type" -> set of instance keys. ContextActive
	// probes the most selective bucket of the pattern instead of
	// scanning every distinct instance (experiment E15 measures the
	// difference).
	ctxComp map[string]map[string]bool
	n       int
}

var _ Recorder = (*Store)(nil)

// NewStore returns an empty indexed store.
func NewStore() *Store {
	return &Store{
		byUser:  make(map[rbac.UserID][]Record),
		ctxRef:  make(map[string]int),
		ctxName: make(map[string]bctx.Name),
		ctxComp: make(map[string]map[string]bool),
	}
}

// Append implements Recorder.
func (s *Store) Append(recs ...Record) error {
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		r.Roles = append([]rbac.RoleName(nil), r.Roles...)
		s.byUser[r.User] = append(s.byUser[r.User], r)
		s.addCtxRefLocked(r.Context)
		s.n++
	}
	return nil
}

func (s *Store) addCtxRefLocked(ctx bctx.Name) {
	key := ctx.Key()
	if s.ctxRef[key] == 0 {
		s.ctxName[key] = ctx
		for _, ck := range componentKeys(ctx) {
			set := s.ctxComp[ck]
			if set == nil {
				set = make(map[string]bool)
				s.ctxComp[ck] = set
			}
			set[key] = true
		}
	}
	s.ctxRef[key]++
}

func (s *Store) dropCtxRefLocked(ctx bctx.Name) {
	key := ctx.Key()
	if s.ctxRef[key]--; s.ctxRef[key] <= 0 {
		delete(s.ctxRef, key)
		delete(s.ctxName, key)
		for _, ck := range componentKeys(ctx) {
			if set := s.ctxComp[ck]; set != nil {
				delete(set, key)
				if len(set) == 0 {
					delete(s.ctxComp, ck)
				}
			}
		}
	}
}

// componentKeys returns the index keys of an instance: per position, a
// typed-value key and a type-only key.
func componentKeys(ctx bctx.Name) []string {
	comps := ctx.Components()
	out := make([]string, 0, 2*len(comps))
	for i, c := range comps {
		out = append(out,
			fmt.Sprintf("%d|%s=%s", i, c.Type, c.Value),
			fmt.Sprintf("%d|%s", i, c.Type),
		)
	}
	return out
}

// UserHasRole implements Recorder.
func (s *Store) UserHasRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rec := range s.byUser[user] {
		if rec.HasRole(role) && matchPattern(pattern, rec) {
			return true, nil
		}
	}
	return false, nil
}

// UserHasPrivilege implements Recorder.
func (s *Store) UserHasPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rec := range s.byUser[user] {
		if rec.Operation == p.Operation && rec.Target == p.Object && matchPattern(pattern, rec) {
			return true, nil
		}
	}
	return false, nil
}

// CountUserRole implements Recorder.
func (s *Store) CountUserRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName, max int) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, rec := range s.byUser[user] {
		if rec.HasRole(role) && matchPattern(pattern, rec) {
			n++
			if max > 0 && n >= max {
				break
			}
		}
	}
	return n, nil
}

// CountUserPrivilege implements Recorder.
func (s *Store) CountUserPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission, max int) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, rec := range s.byUser[user] {
		if rec.Operation == p.Operation && rec.Target == p.Object && matchPattern(pattern, rec) {
			n++
			if max > 0 && n >= max {
				break
			}
		}
	}
	return n, nil
}

// ContextActive implements Recorder using the component index: the
// pattern's most selective component picks a candidate bucket, and only
// those candidates are fully matched. A universal pattern is active as
// soon as any instance exists.
func (s *Store) ContextActive(pattern bctx.Name) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	comps := pattern.Components()
	if len(comps) == 0 {
		return len(s.ctxName) > 0, nil
	}
	// Pick the smallest available bucket among the pattern's component
	// keys (typed-value keys for concrete components, type-only keys for
	// wildcards — instances must carry the type at that position either
	// way).
	var candidates map[string]bool
	for i, c := range comps {
		var key string
		if c.IsWildcard() {
			key = fmt.Sprintf("%d|%s", i, c.Type)
		} else {
			key = fmt.Sprintf("%d|%s=%s", i, c.Type, c.Value)
		}
		set := s.ctxComp[key]
		if set == nil {
			// No instance has this component at this position: nothing
			// can match.
			return false, nil
		}
		if candidates == nil || len(set) < len(candidates) {
			candidates = set
		}
	}
	for key := range candidates {
		if ok, err := bctx.MatchInstance(pattern, s.ctxName[key]); err == nil && ok {
			return true, nil
		}
	}
	return false, nil
}

// PurgeContext implements Recorder.
func (s *Store) PurgeContext(pattern bctx.Name) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for user, recs := range s.byUser {
		kept := recs[:0]
		for _, rec := range recs {
			if matchPattern(pattern, rec) {
				s.dropCtxRefLocked(rec.Context)
				removed++
				continue
			}
			kept = append(kept, rec)
		}
		if len(kept) == 0 {
			delete(s.byUser, user)
		} else {
			s.byUser[user] = kept
		}
	}
	s.n -= removed
	return removed, nil
}

// PurgeUser deletes every record for the user (a §4.3 management
// operation). It returns the number removed.
func (s *Store) PurgeUser(user rbac.UserID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.byUser[user]
	for _, rec := range recs {
		s.dropCtxRefLocked(rec.Context)
	}
	delete(s.byUser, user)
	s.n -= len(recs)
	return len(recs)
}

// PurgeBefore deletes every record with a decision time strictly before
// t (a §4.3 management operation). It returns the number removed.
func (s *Store) PurgeBefore(t time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for user, recs := range s.byUser {
		kept := recs[:0]
		for _, rec := range recs {
			if rec.Time.Before(t) {
				s.dropCtxRefLocked(rec.Context)
				removed++
				continue
			}
			kept = append(kept, rec)
		}
		if len(kept) == 0 {
			delete(s.byUser, user)
		} else {
			s.byUser[user] = kept
		}
	}
	s.n -= removed
	return removed
}

// Len implements Recorder.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// UserRecords returns copies of the user's records whose context matches
// pattern, in insertion order.
func (s *Store) UserRecords(user rbac.UserID, pattern bctx.Name) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, rec := range s.byUser[user] {
		if matchPattern(pattern, rec) {
			out = append(out, rec)
		}
	}
	return out
}

// All returns a copy of every record, ordered by user then insertion
// order, suitable for snapshots.
func (s *Store) All() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	users := make([]rbac.UserID, 0, len(s.byUser))
	for u := range s.byUser {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	out := make([]Record, 0, s.n)
	for _, u := range users {
		out = append(out, s.byUser[u]...)
	}
	return out
}

// Users returns the number of distinct users with retained records.
func (s *Store) Users() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byUser)
}

// Reset drops every record.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byUser = make(map[rbac.UserID][]Record)
	s.ctxRef = make(map[string]int)
	s.ctxName = make(map[string]bctx.Name)
	s.ctxComp = make(map[string]map[string]bool)
	s.n = 0
}

// LinearStore is an unindexed retained ADI: one flat slice scanned on
// every query. It exists as the ablation baseline for experiment E4
// (decision latency vs retained-ADI size) and deliberately mirrors the
// naive implementation the paper warns about in §4.3.
// LinearStore is safe for concurrent use.
type LinearStore struct {
	mu   sync.RWMutex
	recs []Record
}

var _ Recorder = (*LinearStore)(nil)

// NewLinearStore returns an empty linear store.
func NewLinearStore() *LinearStore { return &LinearStore{} }

// Append implements Recorder.
func (s *LinearStore) Append(recs ...Record) error {
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		r.Roles = append([]rbac.RoleName(nil), r.Roles...)
		s.recs = append(s.recs, r)
	}
	return nil
}

// UserHasRole implements Recorder by scanning every record.
func (s *LinearStore) UserHasRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rec := range s.recs {
		if rec.User == user && rec.HasRole(role) && matchPattern(pattern, rec) {
			return true, nil
		}
	}
	return false, nil
}

// UserHasPrivilege implements Recorder by scanning every record.
func (s *LinearStore) UserHasPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rec := range s.recs {
		if rec.User == user && rec.Operation == p.Operation && rec.Target == p.Object && matchPattern(pattern, rec) {
			return true, nil
		}
	}
	return false, nil
}

// CountUserRole implements Recorder by scanning every record.
func (s *LinearStore) CountUserRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName, max int) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, rec := range s.recs {
		if rec.User == user && rec.HasRole(role) && matchPattern(pattern, rec) {
			n++
			if max > 0 && n >= max {
				break
			}
		}
	}
	return n, nil
}

// CountUserPrivilege implements Recorder by scanning every record.
func (s *LinearStore) CountUserPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission, max int) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, rec := range s.recs {
		if rec.User == user && rec.Operation == p.Operation && rec.Target == p.Object && matchPattern(pattern, rec) {
			n++
			if max > 0 && n >= max {
				break
			}
		}
	}
	return n, nil
}

// ContextActive implements Recorder by scanning every record.
func (s *LinearStore) ContextActive(pattern bctx.Name) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rec := range s.recs {
		if matchPattern(pattern, rec) {
			return true, nil
		}
	}
	return false, nil
}

// PurgeContext implements Recorder.
func (s *LinearStore) PurgeContext(pattern bctx.Name) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.recs[:0]
	removed := 0
	for _, rec := range s.recs {
		if matchPattern(pattern, rec) {
			removed++
			continue
		}
		kept = append(kept, rec)
	}
	s.recs = kept
	return removed, nil
}

// Len implements Recorder.
func (s *LinearStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}
