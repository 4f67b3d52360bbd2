package inspect

import (
	"testing"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/rbac"
)

// newTaxLikeEngine builds an engine with two policies:
//
//   - "Project=!": MMER {A,B,C} forbidden cardinality 3 (holding all
//     three within one project instance is a violation), plus an MMEP
//     multiset {p@t, p@t, q@t} forbidden cardinality 3.
//   - "W=!" with first/last steps: MMEP {start@w, mid@w} cardinality 2.
func newTaxLikeEngine(t *testing.T) (*core.Engine, *adi.Store) {
	t.Helper()
	store := adi.NewStore()
	pols := []core.Policy{
		{
			Context: bctx.MustParse("Project=!"),
			MMER:    []core.MMERRule{{Roles: []rbac.RoleName{"A", "B", "C"}, Cardinality: 3}},
			MMEP: []core.MMEPRule{{
				Privileges: []rbac.Permission{
					{Operation: "p", Object: "t"},
					{Operation: "p", Object: "t"},
					{Operation: "q", Object: "t"},
				},
				Cardinality: 3,
			}},
		},
		{
			Context:   bctx.MustParse("W=!"),
			FirstStep: &core.Step{Operation: "start", Target: "w"},
			LastStep:  &core.Step{Operation: "end", Target: "w"},
			MMEP: []core.MMEPRule{{
				Privileges: []rbac.Permission{
					{Operation: "start", Object: "w"},
					{Operation: "mid", Object: "w"},
				},
				Cardinality: 2,
			}},
		},
	}
	eng, err := core.NewEngine(store, pols)
	if err != nil {
		t.Fatal(err)
	}
	return eng, store
}

func grant(t *testing.T, eng *core.Engine, user, role, op, target, ctx string) {
	t.Helper()
	var roles []rbac.RoleName
	if role != "" {
		roles = []rbac.RoleName{rbac.RoleName(role)}
	}
	dec, err := eng.Evaluate(core.Request{
		User: rbac.UserID(user), Roles: roles,
		Operation: rbac.Operation(op), Target: rbac.Object(target),
		Context: bctx.MustParse(ctx),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Effect != core.Grant {
		t.Fatalf("%s %s@%s in %s: denied: %+v", user, op, target, ctx, dec.Denial)
	}
}

func newTestInspector(t *testing.T) (*Inspector, *core.Engine) {
	t.Helper()
	eng, store := newTaxLikeEngine(t)
	return NewInspector(eng, store, nil), eng
}

func findConstraint(t *testing.T, cons []ConstraintProgress, rule string) ConstraintProgress {
	t.Helper()
	for _, c := range cons {
		if c.Rule == rule {
			return c
		}
	}
	t.Fatalf("no %s constraint in %+v", rule, cons)
	return ConstraintProgress{}
}

func TestUserStateMMERProgress(t *testing.T) {
	in, eng := newTestInspector(t)
	grant(t, eng, "alice", "A", "x", "o", "Project=p1")
	grant(t, eng, "alice", "B", "y", "o", "Project=p1")

	st := in.UserState("alice")
	if len(st.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(st.Records))
	}
	c := findConstraint(t, st.Constraints, "MMER[0]")
	if c.K != 2 || c.M != 3 || !c.NearLimit {
		t.Errorf("MMER progress = k=%d m=%d near=%v, want 2/3 near-limit", c.K, c.M, c.NearLimit)
	}
	if len(c.Roles) != 2 {
		t.Errorf("roles consumed = %v, want [A B]", c.Roles)
	}
	if c.Bound != "Project=p1" {
		t.Errorf("bound = %q", c.Bound)
	}

	// The third mutually exclusive role is denied — and the engine's
	// threshold is exactly what NearLimit promised.
	dec, err := eng.Evaluate(core.Request{
		User: "alice", Roles: []rbac.RoleName{"C"},
		Operation: "z", Target: "o", Context: bctx.MustParse("Project=p1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Effect != core.Deny {
		t.Fatal("third mutually exclusive role was granted past near-limit")
	}
	// Progress is unchanged by the denial.
	if c2 := findConstraint(t, in.UserState("alice").Constraints, "MMER[0]"); c2.K != 2 {
		t.Errorf("k after denial = %d, want 2", c2.K)
	}
}

func TestUserStateMMEPMultisetProgress(t *testing.T) {
	in, eng := newTestInspector(t)
	// p is listed twice in the rule: two executions fill two positions.
	grant(t, eng, "alice", "A", "p", "t", "Project=p1")
	grant(t, eng, "alice", "A", "p", "t", "Project=p1")

	c := findConstraint(t, in.UserState("alice").Constraints, "MMEP[0]")
	if c.K != 2 || c.M != 3 || !c.NearLimit {
		t.Errorf("MMEP progress = k=%d m=%d near=%v, want 2/3 near-limit", c.K, c.M, c.NearLimit)
	}
	if len(c.Privileges) != 2 || c.Privileges[0] != "p@t" {
		t.Errorf("privileges consumed = %v, want [p@t p@t]", c.Privileges)
	}
	// A third p grant exceeds the multiset's two positions for p: it is
	// still granted (only two count), and k stays at 2.
	grant(t, eng, "alice", "A", "p", "t", "Project=p1")
	if c := findConstraint(t, in.UserState("alice").Constraints, "MMEP[0]"); c.K != 2 {
		t.Errorf("k after third p = %d, want 2 (multiset caps per-privilege count)", c.K)
	}
}

func TestContextStateScopesToPattern(t *testing.T) {
	in, eng := newTestInspector(t)
	grant(t, eng, "alice", "A", "x", "o", "Project=p1")
	grant(t, eng, "bob", "B", "x", "o", "Project=p2")
	grant(t, eng, "carol", "A", "start", "w", "W=w1")

	st := in.ContextState(bctx.MustParse("Project=*"))
	if len(st.Instances) != 2 {
		t.Fatalf("instances = %v, want the two Project instances", st.Instances)
	}
	if len(st.Users) != 2 {
		t.Fatalf("users = %d, want alice and bob", len(st.Users))
	}
	for _, u := range st.Users {
		if u.User == "carol" {
			t.Error("carol (active only in W=w1) reported under Project=*")
		}
	}

	narrow := in.ContextState(bctx.MustParse("Project=p1"))
	if len(narrow.Instances) != 1 || len(narrow.Users) != 1 || narrow.Users[0].User != "alice" {
		t.Errorf("Project=p1 state = %+v, want just alice in p1", narrow)
	}
}

func TestSummaryNearLimitRisesAndFalls(t *testing.T) {
	in, eng := newTestInspector(t)

	// Rise: one start grant puts alice at k=1 of m=2 in W=w1.
	grant(t, eng, "alice", "A", "start", "w", "W=w1")
	s := in.Summary()
	if s.InstancesOpen != 1 || s.ConstraintsTracked != 1 || s.ConstraintsNearLimit != 1 {
		t.Fatalf("after start: %+v, want 1/1/1", s)
	}

	// Fall: the granted last step purges the bound context entirely.
	grant(t, eng, "alice", "A", "end", "w", "W=w1")
	s = in.Summary()
	if s.InstancesOpen != 0 || s.ConstraintsTracked != 0 || s.ConstraintsNearLimit != 0 {
		t.Fatalf("after last step: %+v, want all zero", s)
	}
}

func TestLastTraceIDFromBroker(t *testing.T) {
	eng, store := newTaxLikeEngine(t)
	broker := NewBroker(8)
	in := NewInspector(eng, store, broker)

	grant(t, eng, "alice", "A", "x", "o", "Project=p1")
	e := ev("alice", OutcomeGrant, "Project=p1")
	e.TraceID = "trace-1"
	broker.Publish(e)

	c := findConstraint(t, in.UserState("alice").Constraints, "MMER[0]")
	if c.LastTraceID != "trace-1" {
		t.Errorf("LastTraceID = %q, want trace-1", c.LastTraceID)
	}
}

// TestBrowserConsistencyAcrossStores runs the same scenario over both
// store implementations and expects identical introspection answers.
func TestBrowserConsistencyAcrossStores(t *testing.T) {
	durable, err := adi.OpenDurable(t.TempDir(), []byte("k"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	stores := map[string]adi.Recorder{
		"store":   adi.NewStore(),
		"durable": durable,
	}
	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			pols := []core.Policy{{
				Context: bctx.MustParse("Project=!"),
				MMER:    []core.MMERRule{{Roles: []rbac.RoleName{"A", "B"}, Cardinality: 2}},
			}}
			eng, err := core.NewEngine(store, pols)
			if err != nil {
				t.Fatal(err)
			}
			grant(t, eng, "alice", "A", "x", "o", "Project=p1")
			in := NewInspector(eng, store, nil)
			c := findConstraint(t, in.UserState("alice").Constraints, "MMER[0]")
			if c.K != 1 || c.M != 2 || !c.NearLimit {
				t.Errorf("%s: progress = %+v, want 1/2 near-limit", name, c)
			}
			s := in.Summary()
			if s.InstancesOpen != 1 || s.ConstraintsTracked != 1 || s.ConstraintsNearLimit != 1 {
				t.Errorf("%s: summary = %+v", name, s)
			}
		})
	}
}
