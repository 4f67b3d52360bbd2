// Package refmodel is the executable reference of the paper's §4.2
// enforcement algorithm that the module's tests check every other
// implementation against: steps 1–8 with MMER, multiset MMEP, FirstStep
// and LastStep, evaluated naively over one flat slice of retained
// records and one of activations, and the six kinds of out-of-band
// change to a retained ADI (adi.Op) with the semantics of DESIGN §5a.
//
// Every query is a scan of the whole slice and every evaluation
// recomputes everything from the policy set it was built from: nothing
// is indexed, compiled, cached or locked, so the model shares no code
// with internal/core or internal/adi and a bug in either shows up as a
// disagreement with it. It takes every time from its caller and never
// reads a clock, so a schedule replayed through it is deterministic. A
// Model is not safe for concurrent use.
//
// The model decides the MSoD phase only: a request reaches it as one
// whose RBAC check has already granted (§4.2's precondition).
package refmodel

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"msod/internal/bctx"
	"msod/internal/policy"
	"msod/internal/rbac"
)

// Record is one retained granted decision, the §4.2 six-tuple. Its
// fields are adi.Record's, so one converts to the other.
type Record struct {
	User      rbac.UserID
	Roles     []rbac.RoleName
	Operation rbac.Operation
	Target    rbac.Object
	Context   bctx.Name
	Time      time.Time
}

// Request is the MSoD-relevant part of a decision request. Its fields
// are core.Request's, so one converts to the other.
type Request struct {
	User      rbac.UserID
	Roles     []rbac.RoleName
	Operation rbac.Operation
	Target    rbac.Object
	Context   bctx.Name
}

// Decision is the model's answer to one request.
type Decision struct {
	Grant bool
	// Rule names the constraint that denied ("MMER[i]" or "MMEP[i]" of
	// its policy), Bound the context it was checked in and Held the
	// conflict count it found; all three are zero on a grant.
	Rule  string
	Bound bctx.Name
	Held  int
	// Recorded counts the records a grant retains (or, from Peek, would
	// retain), Purged the records its last steps deleted.
	Recorded, Purged int
	// Activated lists, in policy order, the bound instances a grant was
	// the FirstStep of; Closed the ones it terminated as their LastStep.
	Activated, Closed []bctx.Name
}

// Effect is what one out-of-band change did. Its fields are
// adi.Effect's, so one converts to the other.
type Effect struct {
	Added, Removed, Activated int
	Kept                      []bctx.Name
}

// Model is the reference retained ADI and the policy set it is judged
// by.
type Model struct {
	policies []policy.MSoDPolicy
	contexts []bctx.Name // contexts[i] is policies[i]'s, parsed
	records  []Record    // in insertion order
	acts     []activation
	// anyRecord switches MMEP counting to the literal any-record reading
	// of step 6.iii: a remaining position counts whenever any record of
	// its privilege exists, so a privilege listed k times counts k after
	// one execution. Experiment E11 is its only user.
	anyRecord bool
}

// activation is an instance started without a record of its own (an
// adi.OpActivate).
type activation struct {
	bound bctx.Name
	at    time.Time
}

// New returns an empty model judging by the set, which must validate.
// A nil set is no policies: a model that grants every request and
// records nothing, which is a reference store for the ops alone.
func New(set *policy.MSoDPolicySet) (*Model, error) {
	if set == nil {
		return &Model{}, nil
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	m := &Model{policies: slices.Clone(set.Policies)}
	for _, p := range m.policies {
		ctx, err := p.Context()
		if err != nil {
			return nil, err
		}
		m.contexts = append(m.contexts, ctx)
	}
	return m, nil
}

// Evaluate runs the §4.2 algorithm for a request whose RBAC check
// granted, and on a grant commits its records and last-step purges,
// stamping the records with now.
func (m *Model) Evaluate(req Request, now time.Time) (Decision, error) {
	return m.decide(req, now, true)
}

// Peek runs the algorithm without changing anything: would the request
// be granted now?
func (m *Model) Peek(req Request) (Decision, error) {
	return m.decide(req, time.Time{}, false)
}

// pending is what one matched policy's grant does, applied only if
// every matched policy grants: a purge of the bound instance, or an
// append of records.
type pending struct {
	bound   bctx.Name
	purge   bool
	starts  bool // the request is the policy's FirstStep
	records []Record
}

func (m *Model) decide(req Request, now time.Time, commit bool) (Decision, error) {
	if req.User == "" {
		return Decision{}, fmt.Errorf("refmodel: request has empty user ID")
	}
	if !req.Context.IsInstance() {
		return Decision{}, fmt.Errorf("refmodel: request context %q is not an instance", req.Context)
	}
	priv := rbac.Permission{Operation: req.Operation, Object: req.Target}
	var grants []pending
	for i, p := range m.policies {
		// Step 1: the policy applies when the request's instance falls
		// within its context; "!" binds to the instance.
		if ok, _ := bctx.MatchInstance(m.contexts[i], req.Context); !ok {
			continue
		}
		bound, err := bctx.Bind(m.contexts[i], req.Context)
		if err != nil {
			return Decision{}, err
		}
		first, last := isStep(p.FirstStep, priv), isStep(p.LastStep, priv)

		// Steps 3 and 4: an instance with no history records only its
		// FirstStep (any request, if the policy has none), unchecked.
		if !m.ContextActive(bound) {
			if p.FirstStep != nil && !first {
				continue
			}
			g := pending{bound: bound, purge: last, starts: p.FirstStep != nil}
			if !last {
				g.records = []Record{record(req, req.Roles, now)}
			}
			grants = append(grants, g)
			continue
		}

		// Step 5: MMER. The request's own roles are ignored; count the
		// rule's other roles the user holds here.
		var records []Record
		for k, rule := range p.MMER {
			var matched []rbac.RoleName
			held := 0
			for _, ref := range rule.Roles {
				role := rbac.RoleName(ref.Value)
				if slices.Contains(req.Roles, role) {
					matched = append(matched, role)
				} else if m.UserHasRole(req.User, bound, role) {
					held++
				}
			}
			if len(matched) == 0 {
				continue
			}
			if held >= rule.ForbiddenCardinality-len(matched) {
				return Decision{Rule: fmt.Sprintf("MMER[%d]", k), Bound: bound, Held: held}, nil
			}
			for _, role := range matched {
				records = append(records, record(req, []rbac.RoleName{role}, now))
			}
		}

		// Step 6: MMEP over the privilege multiset. One listing of the
		// requested privilege is the request's own; every other listing
		// is a position that needs a record of its own to count.
		for k, rule := range p.MMEP {
			positions := map[rbac.Permission]int{}
			for _, ref := range rule.AllPrivileges() {
				positions[rbac.Permission{Operation: rbac.Operation(ref.Operation), Object: rbac.Object(ref.Target)}]++
			}
			if positions[priv] == 0 {
				continue
			}
			positions[priv]--
			held := 0
			for other, n := range positions {
				have := m.CountUserPrivilege(req.User, bound, other)
				if m.anyRecord && have > 0 {
					have = n
				}
				held += min(have, n)
			}
			if held >= rule.ForbiddenCardinality-1 {
				return Decision{Rule: fmt.Sprintf("MMEP[%d]", k), Bound: bound, Held: held}, nil
			}
			records = append(records, record(req, req.Roles, now))
		}

		// Step 7: a LastStep terminates the instance instead of
		// retaining the records.
		if last {
			grants = append(grants, pending{bound: bound, purge: true})
		} else {
			grants = append(grants, pending{bound: bound, starts: first, records: records})
		}
	}

	// Step 8: grant, committing in policy order.
	dec := Decision{Grant: true}
	for _, g := range grants {
		if g.purge {
			if commit {
				dec.Purged += m.Close(g.bound).Removed
				dec.Closed = append(dec.Closed, g.bound)
			}
			continue
		}
		dec.Recorded += len(g.records)
		if commit {
			m.records = append(m.records, g.records...)
			if g.starts {
				dec.Activated = append(dec.Activated, g.bound)
			}
		}
	}
	return dec, nil
}

// isStep reports whether the privilege is the step.
func isStep(s *policy.Step, p rbac.Permission) bool {
	return s != nil && s.Operation == string(p.Operation) && s.TargetURI == string(p.Object)
}

// record builds the six-tuple of a granted request with its own copy
// of the roles.
func record(req Request, roles []rbac.RoleName, now time.Time) Record {
	return Record{User: req.User, Roles: append([]rbac.RoleName(nil), roles...),
		Operation: req.Operation, Target: req.Target, Context: req.Context, Time: now}
}

// within reports whether the instance falls within the pattern.
func within(pattern, inst bctx.Name) bool {
	ok, _ := bctx.MatchInstance(pattern, inst)
	return ok
}

// Record appends copies of the records (an adi.OpRecord). It is
// atomic: a record without a user or an instance context changes
// nothing.
func (m *Model) Record(recs ...Record) (Effect, error) {
	for _, r := range recs {
		if r.User == "" || !r.Context.IsInstance() {
			return Effect{}, fmt.Errorf("refmodel: record %q in %q is not storable", r.User, r.Context)
		}
	}
	for _, r := range recs {
		r.Roles = append([]rbac.RoleName(nil), r.Roles...)
		m.records = append(m.records, r)
	}
	return Effect{Added: len(recs)}, nil
}

// Activate starts the instance at the time unless it is open already
// (an adi.OpActivate).
func (m *Model) Activate(bound bctx.Name, at time.Time) (Effect, error) {
	if m.ContextActive(bound) {
		return Effect{}, nil
	}
	if !bound.IsInstance() {
		return Effect{}, fmt.Errorf("refmodel: activation of %q, which is not an instance", bound)
	}
	m.acts = append(m.acts, activation{bound, at})
	return Effect{Activated: 1}, nil
}

// Close deletes every record and activation within the pattern (an
// adi.OpClose, and step 7).
func (m *Model) Close(pattern bctx.Name) Effect {
	m.acts = slices.DeleteFunc(m.acts, func(a activation) bool { return within(pattern, a.bound) })
	return m.purge(func(r Record) bool { return within(pattern, r.Context) })
}

// PurgeUser deletes the user's records; activations are no user's and
// stay (an adi.OpPurgeUser).
func (m *Model) PurgeUser(user rbac.UserID) Effect {
	return m.purge(func(r Record) bool { return r.User == user })
}

// PurgeBefore deletes the records and activations older than the
// cutoff (an adi.OpPurgeBefore).
func (m *Model) PurgeBefore(cutoff time.Time) Effect {
	m.acts = slices.DeleteFunc(m.acts, func(a activation) bool { return a.at.Before(cutoff) })
	return m.purge(func(r Record) bool { return r.Time.Before(cutoff) })
}

// Release deletes the user's records and activates, at the time, each
// instance they held a record in, in the order of those records (an
// adi.OpRelease): the ones the purge emptied keep running, and are the
// effect's Kept.
func (m *Model) Release(user rbac.UserID, at time.Time) Effect {
	held := m.UserRecords(user, bctx.Universal)
	eff := m.PurgeUser(user)
	for _, r := range held {
		if a, _ := m.Activate(r.Context, at); a.Activated > 0 {
			eff.Activated++
			eff.Kept = append(eff.Kept, r.Context)
		}
	}
	return eff
}

func (m *Model) purge(drop func(Record) bool) Effect {
	n := len(m.records)
	m.records = slices.DeleteFunc(m.records, drop)
	return Effect{Removed: n - len(m.records)}
}

// ContextActive reports whether any record, of any user, or any
// activation lies within the pattern: step 3's "has this instance
// started?".
func (m *Model) ContextActive(pattern bctx.Name) bool {
	for _, r := range m.records {
		if within(pattern, r.Context) {
			return true
		}
	}
	for _, a := range m.acts {
		if within(pattern, a.bound) {
			return true
		}
	}
	return false
}

// UserRecords returns the user's records within the pattern, in
// insertion order. They share their Roles with the model.
func (m *Model) UserRecords(user rbac.UserID, pattern bctx.Name) []Record {
	var out []Record
	for _, r := range m.records {
		if r.User == user && within(pattern, r.Context) {
			out = append(out, r)
		}
	}
	return out
}

// UserHasRole reports whether the user holds a record within the
// pattern that lists the role (step 5.iii).
func (m *Model) UserHasRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName) bool {
	for _, r := range m.UserRecords(user, pattern) {
		if slices.Contains(r.Roles, role) {
			return true
		}
	}
	return false
}

// CountUserPrivilege counts the user's records within the pattern that
// exercised the privilege (step 6.iii).
func (m *Model) CountUserPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission) int {
	n := 0
	for _, r := range m.UserRecords(user, pattern) {
		if r.Operation == p.Operation && r.Target == p.Object {
			n++
		}
	}
	return n
}

// Len is the number of retained records.
func (m *Model) Len() int { return len(m.records) }

// All returns the records ordered by user, then insertion, as
// adi.Store.All orders them. They share their Roles with the model.
func (m *Model) All() []Record {
	out := slices.Clone(m.records)
	sort.SliceStable(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// UserIDs returns the users holding records, sorted.
func (m *Model) UserIDs() []rbac.UserID {
	var out []rbac.UserID
	for _, r := range m.records {
		out = append(out, r.User)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Instances returns the open instances, those holding a record or
// activated, sorted by name.
func (m *Model) Instances() []bctx.Name {
	var out []bctx.Name
	for _, r := range m.records {
		out = append(out, r.Context)
	}
	for _, a := range m.acts {
		out = append(out, a.bound)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return slices.CompactFunc(out, bctx.Name.Equal)
}
