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
// Store is the one in-memory implementation the daemons run: records
// bucketed by user ID for the per-user history queries, and one table
// entry per open context instance (one with records, or activated: see
// OpActivate) for the activity check and the context purge, so
// neither a query nor a purge pays for records it does not concern.
// DurableStore puts a write-ahead log under it. Both satisfy Recorder;
// the tests hold them to internal/refmodel, the naive reference that
// scans one flat slice.
package adi

import (
	"context"
	"fmt"
	"hash/maphash"
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
	// In a record read back from a store (UserRecords, All, a Browser)
	// they are the store's own, shared with other records, and
	// read-only.
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

// Recorder is the whole surface of a retained-ADI implementation: the
// queries and updates of the MSoD engine, the context-aware append its
// commit path takes, and the read-only browse surface the shard's
// introspection and a handoff read.
type Recorder interface {
	CtxAppender
	Browser
	// Append stores granted-decision records. It is atomic: either all
	// records are stored or none. It keeps nothing of the caller's: recs
	// and the Roles slices remain the caller's, who may share or reuse
	// them. The Roles a store keeps may be shared between its records —
	// Store gives every one-role record its role's one slice — so the
	// records read back through UserRecords, All and a Browser are
	// read-only.
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
	// context instance within pattern, or any such instance is activated
	// — §4.2 step 3's "match the policy business context against the
	// business context instances stored in the retained ADI".
	ContextActive(pattern bctx.Name) (bool, error)
	// PurgeContext deletes every record whose context instance is equal
	// or subordinate to pattern (step 7 of the §4.2 algorithm), and the
	// activations of those instances. It returns the number of records
	// removed.
	PurgeContext(pattern bctx.Name) (int, error)
	// Len returns the number of retained records.
	Len() int
}

// CtxAppender is the context-aware append of a Recorder: the engine's
// commit path hands the store the decision's context (and so its
// Tracer and SyncWaiter), letting a store record sub-spans like the
// durable WAL round trip and leave its sync to the decision.
type CtxAppender interface {
	AppendCtx(ctx context.Context, recs ...Record) error
}

// Tracer takes a traced append's span: OpenSpan starts the named one
// and returns the handle CloseSpan ends it by. A store finds it in the
// context under TracerKey, which a context value of the caller's own
// answers, as the shard's per-decision context does.
type Tracer interface {
	OpenSpan(name string) int
	CloseSpan(span int)
}

type contextKey struct{ name string }

// The context keys AppendCtx reads a Tracer and a *SyncWaiter under.
var (
	TracerKey = &contextKey{"adi tracer"}
	SyncKey   = &contextKey{"adi sync"}
)

// SpanWAL names the span around a durable append's WAL round trip, and
// SpanSync the span around a decision's wait for the WAL sync that
// covers what it wrote (SyncWaiter.Wait).
const (
	SpanWAL  = "store.wal"
	SpanSync = "store.sync"
)

// within reports whether the context instance falls within pattern.
func within(pattern, inst bctx.Name) bool {
	ok, err := bctx.MatchInstance(pattern, inst)
	return err == nil && ok
}

// Store is the indexed in-memory retained ADI. Records are bucketed by
// user ID, so per-user history queries do not scan unrelated users, and
// every open context instance — one with live records, or activated —
// has one entry in an instance table, so the step-3 activity check
// inspects instances and not records, and a context purge visits only
// the users who hold records in the instances it closes. Nothing in the index is a
// formatted string: a query allocates nothing. Store is safe for
// concurrent use.
type Store struct {
	mu     sync.RWMutex
	byUser map[rbac.UserID][]entry
	// insts finds an instance by the hash of its components; instances
	// whose hashes collide are chained through instance.next.
	insts map[uint64]*instance
	seed  maphash.Seed
	// hashMask is all ones; a test narrows it to make names collide.
	hashMask uint64
	// comps lists the instances by each positional component, under its
	// value and under any value. A pattern's candidates are the shortest
	// list among its own components (TestActivityCheckWalksOneCandidate
	// counts the difference to scanning every instance: experiment E15).
	comps map[compKey][]*instance
	// roles holds one one-role slice per role name, its capacity capped
	// at its length: every retained record of one role shares its
	// role's slice, and an append to a record's Roles copies.
	roles map[rbac.RoleName][]rbac.RoleName
	n     int
	// What a purge frees is kept for the next record that needs it: the
	// emptied, cleared buckets, the reset instances and the emptied comps
	// lists. Records mostly churn — §4.2 step 7 closes an instance with
	// its last step — so an opening grant reuses what a closing one left
	// instead of allocating it again. Each list holds at most freeMax
	// structures, and slices of a capacity up to freeCap only, so what
	// the store keeps for reuse stays in the tens of KB.
	freeBuckets [][]entry
	freeInsts   []*instance
	freeLists   [][]*instance
}

// The bounds of the store's free lists.
const (
	freeMax = 64
	freeCap = 8
)

// entry is one retained record and the instance it belongs to. The
// record's Context is the instance's name, so the records of an
// instance share one name.
type entry struct {
	Record
	inst *instance
}

// instance is one open context instance: it has live records, or it
// is activated.
type instance struct {
	name bctx.Name
	hash uint64
	// recs counts the live records; the instance leaves the table when
	// it reaches zero and the instance is not activated.
	recs int
	// activatedAt is when the instance was activated, the latest time
	// if it was more than once: an age purge clears the activation only
	// when every one it stands for is older than the cutoff.
	activatedAt time.Time
	activated   bool
	// closing marks the instances a running PurgeContext matched: it
	// drops their records wherever a holder's bucket has them, and takes
	// them out of the table itself once all are dropped.
	closing bool
	// holders lists the users with records here — what a context purge
	// visits. It is a superset: a user or age purge leaves the user
	// listed (and a later append may list it twice) until the instance
	// itself goes, which costs a purge one bucket scan that finds
	// nothing, never a missed record.
	holders []rbac.UserID
	// slots[2*i] and slots[2*i+1] are this instance's positions in the
	// two comps lists of its i'th component, so it leaves them by
	// swapping with the last element.
	slots []int
	next  *instance
	// The first holders and the slots of a name of up to two components
	// live in the instance itself: instances are short-lived and many
	// (one per branch and period, one per process), and this makes each
	// a single allocation.
	holderBuf [4]rbac.UserID
	slotBuf   [4]int
}

// compKey names one comps list: the instances whose component at pos
// has this type and value, or, with an empty value (which no component
// can have), this type and any value.
type compKey struct {
	pos      int
	typ, val string
}

func compKeys(c bctx.Component, pos int) [2]compKey {
	return [2]compKey{{pos, c.Type, c.Value}, {pos, c.Type, ""}}
}

var _ Recorder = (*Store)(nil)

// NewStore returns an empty indexed store.
func NewStore() *Store {
	s := &Store{seed: maphash.MakeSeed(), hashMask: ^uint64(0)}
	s.resetLocked()
	return s
}

func (s *Store) resetLocked() {
	s.byUser = make(map[rbac.UserID][]entry)
	s.insts = make(map[uint64]*instance)
	s.comps = make(map[compKey][]*instance)
	s.roles = make(map[rbac.RoleName][]rbac.RoleName)
	s.n = 0
	s.freeBuckets, s.freeInsts, s.freeLists = nil, nil, nil
}

// recycle puts a freed slice, emptied, on a free list, unless the list
// is full or the slice is too large to keep.
func recycle[T any](free [][]T, list []T) [][]T {
	if len(free) < freeMax && cap(list) <= freeCap {
		free = append(free, list[:0])
	}
	return free
}

// reuse takes the last of a free list, or the zero value when it is
// empty: a nil slice, which append then allocates as it would have, or
// a nil instance.
func reuse[T any](free []T) ([]T, T) {
	var zero T
	if len(free) == 0 {
		return free, zero
	}
	last := len(free) - 1
	x := free[last]
	free[last] = zero
	return free[:last], x
}

// AppendCtx implements Recorder: an in-memory append has no span of its
// own and nothing to sync.
func (s *Store) AppendCtx(_ context.Context, recs ...Record) error { return s.Append(recs...) }

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
		in := s.instanceLocked(r.Context)
		if r.isActivation() {
			in.activate(r.Time)
			continue
		}
		bucket, ok := s.byUser[r.User]
		if !ok {
			s.freeBuckets, bucket = reuse(s.freeBuckets)
		}
		if !holds(bucket, in) {
			in.holders = append(in.holders, r.User)
		}
		in.recs++
		r.Roles = s.rolesLocked(r.Roles)
		r.Context = in.name
		s.byUser[r.User] = append(bucket, entry{r, in})
		s.n++
	}
	return nil
}

// rolesLocked returns the store's own slice of the roles: the role's
// shared slice for one role, which it adds to the table the first time,
// and a copy for any other number.
func (s *Store) rolesLocked(roles []rbac.RoleName) []rbac.RoleName {
	if len(roles) != 1 {
		return append([]rbac.RoleName(nil), roles...)
	}
	shared, ok := s.roles[roles[0]]
	if !ok {
		shared = []rbac.RoleName{roles[0]}
		s.roles[roles[0]] = shared
	}
	return shared
}

// activate records an activation of the instance at t.
func (in *instance) activate(t time.Time) {
	if !in.activated || t.After(in.activatedAt) {
		in.activated, in.activatedAt = true, t
	}
}

// holds reports whether the user's bucket has a record in the instance:
// one pointer comparison per record of a bucket that the history queries
// of the same decision have just walked component by component.
func holds(bucket []entry, in *instance) bool {
	for i := range bucket {
		if bucket[i].inst == in {
			return true
		}
	}
	return false
}

// instanceLocked returns the table's entry for the context instance,
// adding it to the table and the component lists if it is new.
func (s *Store) instanceLocked(name bctx.Name) *instance {
	// '=' and ',' cannot occur in a token, so distinct names hash
	// distinct byte strings.
	var h maphash.Hash
	h.SetSeed(s.seed)
	for i := 0; i < name.Len(); i++ {
		c := name.At(i)
		h.WriteString(c.Type)
		h.WriteByte('=')
		h.WriteString(c.Value)
		h.WriteByte(',')
	}
	return s.instanceAtLocked(name, h.Sum64()&s.hashMask)
}

// instanceAtLocked is instanceLocked given the name's hash (apart, so
// that a test can make names collide).
func (s *Store) instanceAtLocked(name bctx.Name, hash uint64) *instance {
	for in := s.insts[hash]; in != nil; in = in.next {
		if in.name.Equal(name) {
			return in
		}
	}
	var in *instance
	if s.freeInsts, in = reuse(s.freeInsts); in == nil {
		in = new(instance)
	}
	in.name, in.hash, in.next = name, hash, s.insts[hash]
	in.holders = in.holderBuf[:0]
	if in.slots = in.slotBuf[:]; 2*name.Len() > len(in.slotBuf) {
		in.slots = make([]int, 2*name.Len())
	}
	s.insts[hash] = in
	for i := 0; i < name.Len(); i++ {
		for j, k := range compKeys(name.At(i), i) {
			list, ok := s.comps[k]
			if !ok {
				s.freeLists, list = reuse(s.freeLists)
			}
			in.slots[2*i+j] = len(list)
			s.comps[k] = append(list, in)
		}
	}
	return in
}

// releaseLocked accounts for one record of the instance going; with
// its last one the instance leaves the table, unless it is activated or
// a context purge is closing it and will take it out itself.
func (s *Store) releaseLocked(in *instance) {
	if in.recs--; in.recs == 0 && !in.activated && !in.closing {
		s.unlinkLocked(in)
	}
}

// unlinkLocked takes the instance out of the table and the component
// lists, and keeps it, reset, and any list it empties for reuse. The
// records that named it keep their name: the store never writes into a
// name's components, so a record read out before (All, UserRecords)
// stays as it was.
func (s *Store) unlinkLocked(in *instance) {
	if head := s.insts[in.hash]; head != in {
		for head.next != in {
			head = head.next
		}
		head.next = in.next
	} else if in.next != nil {
		s.insts[in.hash] = in.next
	} else {
		delete(s.insts, in.hash)
	}
	for i := 0; i < in.name.Len(); i++ {
		for j, k := range compKeys(in.name.At(i), i) {
			// The last instance of the list takes this one's place; it
			// is listed under the same key, so its slot has the same
			// index as ours.
			list := s.comps[k]
			last := len(list) - 1
			list[in.slots[2*i+j]] = list[last]
			list[last].slots[2*i+j] = in.slots[2*i+j]
			list[last] = nil
			if last == 0 {
				delete(s.comps, k)
				s.freeLists = recycle(s.freeLists, list)
			} else {
				s.comps[k] = list[:last]
			}
		}
	}
	if *in = (instance{}); len(s.freeInsts) < freeMax {
		s.freeInsts = append(s.freeInsts, in)
	}
}

// candidatesLocked returns a list that holds every instance within the
// pattern, which is not the universal one: the shortest of the lists
// its components name (a concrete component its value's list, a
// wildcard its type's). It is nil as soon as one list is empty, for
// then no instance carries that component.
func (s *Store) candidatesLocked(pattern bctx.Name) []*instance {
	var shortest []*instance
	for i := 0; i < pattern.Len(); i++ {
		c := pattern.At(i)
		if c.IsWildcard() {
			c.Value = ""
		}
		list := s.comps[compKey{i, c.Type, c.Value}]
		if len(list) == 0 {
			return nil
		}
		if shortest == nil || len(list) < len(shortest) {
			shortest = list
		}
	}
	return shortest
}

// dropLocked removes from the user's bucket the entries drop selects,
// keeping the order of the others, and returns how many went.
func (s *Store) dropLocked(user rbac.UserID, drop func(*entry) bool) int {
	bucket := s.byUser[user]
	kept := bucket[:0]
	for i := range bucket {
		if drop(&bucket[i]) {
			s.releaseLocked(bucket[i].inst)
			continue
		}
		kept = append(kept, bucket[i])
	}
	removed := len(bucket) - len(kept)
	if removed == 0 {
		return 0
	}
	clear(bucket[len(kept):])
	if len(kept) == 0 {
		delete(s.byUser, user)
		s.freeBuckets = recycle(s.freeBuckets, bucket)
	} else {
		s.byUser[user] = kept
	}
	s.n -= removed
	return removed
}

// UserHasRole implements Recorder.
func (s *Store) UserHasRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName) (bool, error) {
	n, err := s.CountUserRole(user, pattern, role, 1)
	return n > 0, err
}

// UserHasPrivilege implements Recorder.
func (s *Store) UserHasPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission) (bool, error) {
	n, err := s.CountUserPrivilege(user, pattern, p, 1)
	return n > 0, err
}

// CountUserRole implements Recorder.
func (s *Store) CountUserRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName, max int) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	bucket := s.byUser[user]
	for i := range bucket {
		if rec := &bucket[i].Record; rec.HasRole(role) && within(pattern, rec.Context) {
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
	bucket := s.byUser[user]
	for i := range bucket {
		if rec := &bucket[i].Record; rec.Operation == p.Operation && rec.Target == p.Object && within(pattern, rec.Context) {
			n++
			if max > 0 && n >= max {
				break
			}
		}
	}
	return n, nil
}

// ContextActive implements Recorder from the instance table: only the
// pattern's candidates are matched, and the universal pattern is active
// as soon as any instance is open.
func (s *Store) ContextActive(pattern bctx.Name) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if pattern.IsUniversal() {
		return len(s.insts) > 0, nil
	}
	for _, in := range s.candidatesLocked(pattern) {
		if within(pattern, in.name) {
			return true, nil
		}
	}
	return false, nil
}

// PurgeContext implements Recorder. Its cost follows what it removes —
// the instances within pattern among the pattern's candidates, and the
// buckets of the users holding records in them — not the store's size.
func (s *Store) PurgeContext(pattern bctx.Name) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pattern.IsUniversal() {
		removed := s.n
		s.resetLocked()
		return removed, nil
	}
	// Every record of an instance within pattern goes, so the instances
	// are marked first and each holder's bucket is then cleared of all of
	// them in one pass — the holders of the branches of one period are
	// largely the same users.
	removed := 0
	list := s.candidatesLocked(pattern)
	for _, in := range list {
		in.closing = within(pattern, in.name)
	}
	for _, in := range list {
		for _, user := range in.holders {
			if !in.closing || in.recs == 0 {
				break
			}
			removed += s.dropLocked(user, func(e *entry) bool { return e.inst.closing })
		}
	}
	// Backwards, because an instance leaves this very list by swapping
	// with the last element — one already visited. The list goes on the
	// free list when its last instance leaves it, which is safe only
	// because nothing in this walk takes from that list
	// (instanceAtLocked does, and is not called here).
	for i := len(list) - 1; i >= 0; i-- {
		if in := list[i]; in.closing {
			s.unlinkLocked(in)
		}
	}
	return removed, nil
}

// PurgeUser deletes every record for the user (a §4.3 management
// operation); activations are no user's and stay. It returns the number
// removed.
func (s *Store) PurgeUser(user rbac.UserID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropLocked(user, func(*entry) bool { return true })
}

// PurgeBefore deletes every record with a decision time strictly before
// t (a §4.3 management operation), and clears the activations older
// than t. It returns the number of records removed.
func (s *Store) PurgeBefore(t time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for user := range s.byUser {
		removed += s.dropLocked(user, func(e *entry) bool { return e.Time.Before(t) })
	}
	var stale []*instance
	for _, in := range s.insts {
		for ; in != nil; in = in.next {
			if in.activated && in.activatedAt.Before(t) {
				stale = append(stale, in)
			}
		}
	}
	for _, in := range stale {
		if in.activated = false; in.recs == 0 {
			s.unlinkLocked(in)
		}
	}
	return removed
}

// activations encodes the activated instances as Append takes them.
func (s *Store) activations() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, in := range s.insts {
		for ; in != nil; in = in.next {
			if in.activated {
				out = append(out, newActivationRecord(in.name, in.activatedAt))
			}
		}
	}
	return out
}

// Len implements Recorder: the records, not the activations.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// UserRecords returns copies of the user's records whose context matches
// pattern, in insertion order. Their Roles are the store's, read-only.
func (s *Store) UserRecords(user rbac.UserID, pattern bctx.Name) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, e := range s.byUser[user] {
		if within(pattern, e.Context) {
			out = append(out, e.Record)
		}
	}
	return out
}

// All returns a copy of every record, ordered by user then insertion
// order, suitable for snapshots. Their Roles are the store's,
// read-only.
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
		for _, e := range s.byUser[u] {
			out = append(out, e.Record)
		}
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
	s.resetLocked()
}
