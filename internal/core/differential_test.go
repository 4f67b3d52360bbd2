package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/refmodel"
)

// The differential vocabulary: few enough names that rules, requests,
// records and purges collide all the time.
var (
	diffRoles = []string{"R0", "R1", "R2", "R3"}
	diffOps   = []string{"op0", "op1", "op2", "first", "last"}
	diffUsers = []rbac.UserID{"u0", "u1", "u2"}
	diffVals  = []string{"a", "b", "c"}
	diffEpoch = time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
)

// genPolicySet builds 1..3 random valid policies: contexts of depth 1-2
// over the values {*, !, a, b}, 0-2 MMER rules of 2-3 distinct roles and
// 0-2 MMEP rules of 2-4 privileges, duplicates likely, every cardinality
// from 1 to n, and first and last steps half the time each.
func genPolicySet(r *rand.Rand) *policy.MSoDPolicySet {
	set := &policy.MSoDPolicySet{}
	for i := 1 + r.Intn(3); i > 0; i-- {
		ctx := ""
		for d := 0; d < 1+r.Intn(2); d++ {
			if d > 0 {
				ctx += ", "
			}
			ctx += fmt.Sprintf("T%d=%s", d, []string{bctx.AnyInstance, bctx.PerInstance, "a", "b"}[r.Intn(4)])
		}
		p := policy.MSoDPolicy{BusinessContext: ctx}
		for k := r.Intn(3); k > 0; k-- {
			nr := 2 + r.Intn(2)
			rule := policy.MMER{ForbiddenCardinality: 1 + r.Intn(nr)}
			for _, idx := range r.Perm(len(diffRoles))[:nr] {
				rule.Roles = append(rule.Roles, policy.RoleRef{Value: diffRoles[idx]})
			}
			p.MMER = append(p.MMER, rule)
		}
		for k := r.Intn(3); k > 0; k-- {
			np := 2 + r.Intn(3)
			rule := policy.MMEP{ForbiddenCardinality: 1 + r.Intn(np)}
			for j := 0; j < np; j++ {
				op := diffOps[r.Intn(3)]
				if r.Intn(4) == 0 {
					op = diffOps[r.Intn(len(diffOps))]
				}
				rule.Privileges = append(rule.Privileges, policy.PrivilegeRef{Operation: op, Target: "t"})
			}
			p.MMEP = append(p.MMEP, rule)
		}
		if len(p.MMER)+len(p.MMEP) == 0 {
			p.MMER = []policy.MMER{{ForbiddenCardinality: 2, Roles: []policy.RoleRef{{Value: "R0"}, {Value: "R1"}}}}
		}
		if r.Intn(2) == 0 {
			p.FirstStep = &policy.Step{Operation: "first", TargetURI: "t"}
		}
		if r.Intn(2) == 0 {
			p.LastStep = &policy.Step{Operation: "last", TargetURI: "t"}
		}
		set.Policies = append(set.Policies, p)
	}
	return set
}

// genInstance draws a context instance of depth 1-3, most often 2.
func genInstance(r *rand.Rand) bctx.Name {
	comps := make([]bctx.Component, []int{1, 2, 2, 2, 3}[r.Intn(5)])
	for d := range comps {
		comps[d] = bctx.Component{Type: fmt.Sprintf("T%d", d), Value: diffVals[r.Intn(len(diffVals))]}
	}
	return bctx.MustName(comps...)
}

// genPattern draws an instance with "*" at some of its positions.
func genPattern(r *rand.Rand) bctx.Name {
	comps := genInstance(r).Components()
	for d := range comps {
		if r.Intn(3) == 0 {
			comps[d].Value = bctx.AnyInstance
		}
	}
	return bctx.MustName(comps...)
}

// genRequest draws a request of 1-2 roles.
func genRequest(r *rand.Rand) Request {
	req := Request{User: diffUsers[r.Intn(len(diffUsers))], Operation: rbac.Operation(diffOps[r.Intn(len(diffOps))]),
		Target: "t", Context: genInstance(r)}
	for _, idx := range r.Perm(len(diffRoles))[:1+r.Intn(2)] {
		req.Roles = append(req.Roles, rbac.RoleName(diffRoles[idx]))
	}
	return req
}

// genOp draws one adi.Op of any kind at time now. Some activations and
// releases leave the time to the engine's clock, some records carry no
// user and some activations a pattern (both refused unless the pattern
// is open), and closes take patterns.
func genOp(r *rand.Rand, now time.Time) adi.Op {
	at := now
	if r.Intn(2) == 0 {
		at = time.Time{}
	}
	user := diffUsers[r.Intn(len(diffUsers))]
	switch r.Intn(6) {
	case 0:
		rec := adi.Record{User: user, Roles: []rbac.RoleName{rbac.RoleName(diffRoles[r.Intn(len(diffRoles))])},
			Operation: rbac.Operation(diffOps[r.Intn(len(diffOps))]), Target: "t", Context: genInstance(r), Time: now}
		if r.Intn(8) == 0 {
			rec.User = ""
		}
		return adi.Op{Kind: adi.OpRecord, Records: []adi.Record{rec}}
	case 1:
		bound := genInstance(r)
		if r.Intn(8) == 0 {
			bound = genPattern(r)
		}
		return adi.Op{Kind: adi.OpActivate, Bound: bound, Time: at}
	case 2:
		return adi.Op{Kind: adi.OpClose, Bound: genPattern(r)}
	case 3:
		return adi.Op{Kind: adi.OpPurgeUser, User: user}
	case 4:
		return adi.Op{Kind: adi.OpPurgeBefore, Time: diffEpoch.Add(time.Duration(r.Int63n(int64(now.Sub(diffEpoch)) + 1)))}
	default:
		return adi.Op{Kind: adi.OpRelease, User: user, Time: at}
	}
}

// applyModel is adi.Apply on the reference model.
func applyModel(m *refmodel.Model, op adi.Op) (adi.Effect, error) {
	var eff refmodel.Effect
	var err error
	switch op.Kind {
	case adi.OpRecord:
		recs := make([]refmodel.Record, len(op.Records))
		for i, r := range op.Records {
			recs[i] = refmodel.Record(r)
		}
		eff, err = m.Record(recs...)
	case adi.OpActivate:
		eff, err = m.Activate(op.Bound, op.Time)
	case adi.OpClose:
		eff = m.Close(op.Bound)
	case adi.OpPurgeUser:
		eff = m.PurgeUser(op.User)
	case adi.OpPurgeBefore:
		eff = m.PurgeBefore(op.Time)
	case adi.OpRelease:
		eff = m.Release(op.User, op.Time)
	default:
		err = fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return adi.Effect(eff), err
}

// sameDecision compares the engine's decision with the model's: the
// effect, the denying rule, its bound context and count, what a grant
// recorded and purged, and the instances it started and closed.
func sameDecision(got *Decision, want refmodel.Decision) error {
	if (got.Effect == Grant) != want.Grant {
		return fmt.Errorf("engine %v (%v), model grant %v (%s)", got.Effect, got.Denial, want.Grant, want.Rule)
	}
	if d := got.Denial; d != nil && (d.Rule != want.Rule || !d.BoundContext.Equal(want.Bound) || d.Held != want.Held) {
		return fmt.Errorf("engine denied by %s in %q holding %d, model by %s in %q holding %d",
			d.Rule, d.BoundContext, d.Held, want.Rule, want.Bound, want.Held)
	}
	if int(got.Recorded) != want.Recorded || int(got.Purged) != want.Purged ||
		!slices.EqualFunc(got.Activated(), want.Activated, bctx.Name.Equal) ||
		!slices.EqualFunc(got.Closed(), want.Closed, bctx.Name.Equal) {
		return fmt.Errorf("engine recorded %d, purged %d, activated %v, closed %v; model %d, %d, %v, %v",
			got.Recorded, got.Purged, got.Activated(), got.Closed(), want.Recorded, want.Purged, want.Activated, want.Closed)
	}
	return nil
}

// sameRetained compares the store's records, field for field in the
// order Store.All gives them, and its open instances with the model's.
func sameRetained(store *adi.Store, m *refmodel.Model) error {
	want := m.All()
	got := store.All()
	if len(got) != len(want) {
		return fmt.Errorf("store retains %d records, model %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], adi.Record(want[i])) {
			return fmt.Errorf("record %d: store %v, model %v", i, got[i], adi.Record(want[i]))
		}
	}
	if g, w := store.Instances(), m.Instances(); !slices.EqualFunc(g, w, bctx.Name.Equal) {
		return fmt.Errorf("store has instances %v open, model %v", g, w)
	}
	return nil
}

// TestQuickDifferentialOracle: under random policy sets and random
// streams of requests, with random adi.Ops of every kind sent through
// Engine.Apply between them, the engine and the reference model
// (internal/refmodel) agree on every decision, advisory and committed,
// on every op's effect, and, after every step, on the retained ADI
// record for record.
func TestQuickDifferentialOracle(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		set := genPolicySet(r)
		policies, err := Compile(set)
		if err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		model, err := refmodel.New(set)
		if err != nil {
			t.Logf("seed %d: model: %v", seed, err)
			return false
		}
		now := diffEpoch
		store := adi.NewStore()
		eng, err := NewEngine(store, policies, WithClock(func() time.Time { return now }))
		if err != nil {
			t.Logf("seed %d: engine: %v", seed, err)
			return false
		}
		fail := func(step int, what string, err error) bool {
			t.Logf("seed %d step %d: %s: %v\npolicies %+v", seed, step, what, err, set.Policies)
			return false
		}
		for i := 0; i < int(steps); i++ {
			now = now.Add(time.Minute)
			if r.Intn(4) == 0 {
				op := genOp(r, now)
				stamped := op // the engine stamps an activation or release with its clock
				if op.Time.IsZero() && (op.Kind == adi.OpActivate || op.Kind == adi.OpRelease) {
					stamped.Time = now
				}
				want, werr := applyModel(model, stamped)
				var got adi.Effect
				gerr := eng.Apply([]adi.Op{op}, func(_ adi.Op, eff adi.Effect) { got = eff })
				if (gerr != nil) != (werr != nil) || !reflect.DeepEqual(got, want) {
					return fail(i, fmt.Sprintf("%v %+v", op.Kind, op), fmt.Errorf("engine %+v, %v; model %+v, %v", got, gerr, want, werr))
				}
			} else {
				req := genRequest(r)
				peek, err := eng.Peek(req)
				if err != nil {
					return fail(i, "peek", err)
				}
				wantPeek, err := model.Peek(refmodel.Request(req))
				if err != nil {
					return fail(i, "model peek", err)
				}
				if err := sameDecision(peek, wantPeek); err != nil {
					return fail(i, fmt.Sprintf("peek %+v", req), err)
				}
				got, err := eng.Evaluate(req)
				if err != nil {
					return fail(i, "evaluate", err)
				}
				want, err := model.Evaluate(refmodel.Request(req), now)
				if err != nil {
					return fail(i, "model evaluate", err)
				}
				if err := sameDecision(got, want); err != nil {
					return fail(i, fmt.Sprintf("evaluate %+v", req), err)
				}
			}
			if err := sameRetained(store, model); err != nil {
				return fail(i, "retained ADI", err)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}
