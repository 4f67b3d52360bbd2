package adi

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
	"msod/internal/refmodel"
)

// The vocabulary of the store-equivalence properties. Instances reach
// three components and share prefixes, and the patterns cover "*" and
// "!" at every position, so one purge or activity check can hit several
// instances at once while leaving siblings alone.
var (
	eqUsers = []string{"u0", "u1", "u2"}
	eqRoles = []string{"R0", "R1"}
	eqCtxs  = []string{
		"A=1", "A=2", "A=1, B=x", "A=1, B=y", "A=2, B=x",
		"A=1, B=x, C=p", "A=1, B=x, C=q", "A=2, B=y, C=p",
	}
	eqPatterns = []string{
		"", "A=1", "A=2", "A=*", "A=!", "A=1, B=*", "A=*, B=x", "A=!, B=y",
		"A=1, B=x, C=p", "A=*, B=*, C=p", "A=2, B=!, C=*", "A=3", "B=x",
	}
	eqEpoch = time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
)

// mutableStore is what the equivalence properties drive: the store's
// whole surface and the snapshot dump.
type mutableStore interface {
	Recorder
	All() []Record
}

// reference is internal/refmodel's flat slice, which every answer of
// the indexed and durable stores is compared against.
type reference struct{ *refmodel.Model }

func newReference() reference {
	m, _ := refmodel.New(nil)
	return reference{m}
}

// All returns the model's records as Store.All orders them.
func (r reference) All() []Record { return fromModel(r.Model.All()) }

// UserRecords returns the model's records of the user within pattern.
func (r reference) UserRecords(user rbac.UserID, pattern bctx.Name) []Record {
	return fromModel(r.Model.UserRecords(user, pattern))
}

func fromModel(recs []refmodel.Record) []Record {
	var out []Record
	for _, rec := range recs {
		out = append(out, Record(rec))
	}
	return out
}

// apply is Apply on the model.
func (r reference) apply(op Op) (Effect, error) {
	var eff refmodel.Effect
	var err error
	switch op.Kind {
	case OpRecord:
		recs := make([]refmodel.Record, len(op.Records))
		for i, rec := range op.Records {
			recs[i] = refmodel.Record(rec)
		}
		eff, err = r.Record(recs...)
	case OpActivate:
		eff, err = r.Activate(op.Bound, op.Time)
	case OpClose:
		eff = r.Close(op.Bound)
	case OpPurgeUser:
		eff = r.PurgeUser(op.User)
	case OpPurgeBefore:
		eff = r.PurgeBefore(op.Time)
	case OpRelease:
		eff = r.Release(op.User, op.Time)
	}
	return Effect(eff), err
}

// randomOp draws one op of any kind, releases included.
func randomOp(r *rand.Rand, step int) Op {
	at := eqEpoch.Add(time.Duration(step) * time.Minute)
	user := rbac.UserID(eqUsers[r.Intn(len(eqUsers))])
	switch r.Intn(9) {
	case 0, 1, 2:
		rc := rec(string(user), eqRoles[r.Intn(len(eqRoles))],
			fmt.Sprintf("op%d", r.Intn(3)), "t", eqCtxs[r.Intn(len(eqCtxs))])
		rc.Time = at
		return Op{Kind: OpRecord, Records: []Record{rc}}
	case 3: // an activation applies only where the instance is not open
		return Op{Kind: OpActivate, Bound: bctx.MustParse(eqCtxs[r.Intn(len(eqCtxs))]), Time: at}
	case 4, 5:
		return Op{Kind: OpClose, Bound: bctx.MustParse(eqPatterns[r.Intn(len(eqPatterns))])}
	case 6:
		return Op{Kind: OpPurgeUser, User: user}
	case 7:
		return Op{Kind: OpPurgeBefore, Time: eqEpoch.Add(time.Duration(r.Intn(step+1)) * time.Minute)}
	default:
		return Op{Kind: OpRelease, User: user, Time: at}
	}
}

// mutate applies one random op to both stores through Apply and reports
// the first disagreement about its effect.
func mutate(r *rand.Rand, step int, got mutableStore, want reference) error {
	op := randomOp(r, step)
	g, e1 := Apply(got, op)
	w, e2 := want.apply(op)
	if e1 != nil || e2 != nil || g.Added != w.Added || g.Removed != w.Removed || g.Activated != w.Activated ||
		fmt.Sprint(g.Kept) != fmt.Sprint(w.Kept) {
		return fmt.Errorf("Apply(%v %+v) = %+v, %v; want %+v, %v", op.Kind, op, g, e1, w, e2)
	}
	return nil
}

// sameState compares everything observable about the two stores that
// does not depend on a user: an index entry that outlives its last
// record, or dies before it, shows here at the operation that caused it.
func sameState(got mutableStore, want reference) error {
	if err := noActivationRecords(got); err != nil {
		return err
	}
	if g, w := got.Len(), want.Len(); g != w {
		return fmt.Errorf("Len = %d, want %d", g, w)
	}
	if g, w := got.UserIDs(), want.UserIDs(); !sameSlice(g, w) {
		return fmt.Errorf("UserIDs = %v, want %v", g, w)
	}
	if s, ok := got.(*Store); ok && s.Users() != len(want.UserIDs()) {
		return fmt.Errorf("Users = %d, want %d", s.Users(), len(want.UserIDs()))
	}
	if g, w := got.All(), want.All(); !sameSlice(g, w) {
		return fmt.Errorf("All = %v, want %v", g, w)
	}
	if g, w := got.Instances(), want.Instances(); !sameSlice(g, w) {
		return fmt.Errorf("Instances = %v, want %v", g, w)
	}
	for _, ps := range eqPatterns {
		p := bctx.MustParse(ps)
		if g, err := got.ContextActive(p); err != nil || g != want.ContextActive(p) {
			return fmt.Errorf("ContextActive(%q) = %v, %v; want %v", p, g, err, want.ContextActive(p))
		}
	}
	return nil
}

// noActivationRecords: an activation is a property of its instance and
// of no user, so no browse or count surface shows the record that
// encodes it.
func noActivationRecords(s mutableStore) error {
	all := s.All()
	if len(all) != s.Len() {
		return fmt.Errorf("All has %d records, Len says %d", len(all), s.Len())
	}
	for _, rec := range all {
		if rec.User == activationUser {
			return fmt.Errorf("All returns %v", rec)
		}
	}
	if slices.Contains(s.UserIDs(), activationUser) {
		return fmt.Errorf("UserIDs lists %q", activationUser)
	}
	if recs := s.UserRecords(activationUser, bctx.Universal); len(recs) != 0 {
		return fmt.Errorf("UserRecords(%q) = %v", activationUser, recs)
	}
	return nil
}

// sameAnswers compares the five history queries for one random user,
// pattern, role and privilege.
func sameAnswers(r *rand.Rand, got mutableStore, want reference) error {
	u := rbac.UserID(eqUsers[r.Intn(len(eqUsers))])
	p := bctx.MustParse(eqPatterns[r.Intn(len(eqPatterns))])
	role := rbac.RoleName(eqRoles[r.Intn(len(eqRoles))])
	perm := rbac.Permission{Operation: rbac.Operation(fmt.Sprintf("op%d", r.Intn(3))), Object: "t"}
	roles := 0
	for _, rec := range want.UserRecords(u, p) {
		if rec.HasRole(role) {
			roles++
		}
	}
	privs := want.CountUserPrivilege(u, p, perm)
	for _, q := range []struct {
		name string
		ask  func() (any, error)
		want any
	}{
		{"UserHasRole", func() (any, error) { return got.UserHasRole(u, p, role) }, want.UserHasRole(u, p, role)},
		{"UserHasPrivilege", func() (any, error) { return got.UserHasPrivilege(u, p, perm) }, privs > 0},
		{"CountUserRole", func() (any, error) { return got.CountUserRole(u, p, role, 0) }, roles},
		{"CountUserPrivilege", func() (any, error) { return got.CountUserPrivilege(u, p, perm, 2) }, min(privs, 2)},
	} {
		if g, err := q.ask(); err != nil || g != q.want {
			return fmt.Errorf("%s(%q, %q) = %v, %v; want %v", q.name, u, p, g, err, q.want)
		}
	}
	if g, w := got.UserRecords(u, p), want.UserRecords(u, p); !sameSlice(g, w) {
		return fmt.Errorf("UserRecords(%q, %q) = %v, want %v", u, p, g, w)
	}
	return nil
}

// sameSlice is reflect.DeepEqual that does not tell nil from empty.
func sameSlice[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// TestInstanceTableCollisions: instances whose names hash alike are
// chained, and each leaves the chain without taking another with it,
// whether it is the chain's head, middle or tail. (64-bit hashes of
// real names never collide in a test, so the hash is given.)
func TestInstanceTableCollisions(t *testing.T) {
	names := []bctx.Name{bctx.MustParse("A=1"), bctx.MustParse("A=2"), bctx.MustParse("C=1, D=2"), bctx.MustParse("B=x")}
	for gone := range names {
		s := NewStore()
		var ins []*instance
		for _, n := range names {
			in := s.instanceAtLocked(n, 7)
			in.recs = 1
			ins = append(ins, in)
		}
		s.releaseLocked(ins[gone])
		for i, n := range names {
			active, _ := s.ContextActive(n)
			if active != (i != gone) {
				t.Errorf("after %q left the chain, ContextActive(%q) = %v", names[gone], n, active)
			}
			if i != gone && s.instanceAtLocked(n, 7) != ins[i] {
				t.Errorf("after %q left the chain, %q is no longer found", names[gone], n)
			}
		}
		if got := len(s.Instances()); got != len(names)-1 {
			t.Errorf("after %q left the chain, %d instances are listed", names[gone], got)
		}
	}
}
