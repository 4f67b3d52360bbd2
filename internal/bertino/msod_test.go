package bertino

import (
	"fmt"
	"testing"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/rbac"
	"msod/internal/workflow"
	"msod/internal/workload"
)

// The tests in this file set the history-based MSoD engine beside the
// baseline it is compared with in §6 (experiments E2 and E6 of
// EXPERIMENTS.md): the engine, given nothing but each request's
// business context, admits exactly what the planner computes from the
// whole workflow and population up front.

// TestExample2SweepAgreesWithPlanner plays every actor assignment of
// Example 2's five steps — T1 and T4 by one of 2 clerks, the two T2
// approvals and T3 by one of 3 managers, 2×2×3×3×3 = 108 in all —
// through a fresh engine each, and counts those granted end to end.
// Combinatorially 12 are valid (distinct clerks for T1/T4: 2 ordered
// pairs; distinct approving managers: 6 ordered pairs; the third
// manager combines: 1), and the planner's precomputation finds the
// same 12.
func TestExample2SweepAgreesWithPlanner(t *testing.T) {
	clerks := []rbac.UserID{"c1", "c2"}
	managers := []rbac.UserID{"m1", "m2", "m3"}
	total, granted := 0, 0
	for _, t1 := range clerks {
		for _, t4 := range clerks {
			for _, a1 := range managers {
				for _, a2 := range managers {
					for _, t3 := range managers {
						total++
						if grantsWholeProcess(t, t1, a1, a2, t3, t4) {
							granted++
						}
					}
				}
			}
		}
	}
	if total != 108 || granted != 12 {
		t.Fatalf("engine granted %d of %d assignments end to end, want 12 of 108", granted, total)
	}
	stats, err := taxPlanner(t, 2, 3).Precompute()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Assignments != granted {
		t.Errorf("planner precomputes %d valid assignments, the engine grants %d", stats.Assignments, granted)
	}
}

// grantsWholeProcess runs one assignment of Example 2 through a fresh
// engine and reports whether every step was granted.
func grantsWholeProcess(t *testing.T, t1, a1, a2, t3, t4 rbac.UserID) bool {
	t.Helper()
	eng, err := core.NewEngine(adi.NewStore(), []core.Policy{workload.TaxPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	const check, results, audit = "http://www.myTaxOffice.com/Check", "http://secret.location.com/results", "http://secret.location.com/audit"
	steps := []core.Request{
		{User: t1, Roles: []rbac.RoleName{"Clerk"}, Operation: "prepareCheck", Target: check},
		{User: a1, Roles: []rbac.RoleName{"Manager"}, Operation: "approve/disapproveCheck", Target: check},
		{User: a2, Roles: []rbac.RoleName{"Manager"}, Operation: "approve/disapproveCheck", Target: check},
		{User: t3, Roles: []rbac.RoleName{"Manager"}, Operation: "combineResults", Target: results},
		{User: t4, Roles: []rbac.RoleName{"Clerk"}, Operation: "confirmCheck", Target: audit},
	}
	for _, req := range steps {
		req.Context = bctx.MustParse("TaxOffice=Leeds, taxRefundProcess=p1")
		dec, err := eng.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Effect == core.Deny {
			return false
		}
	}
	return true
}

// TestPlannerCommitsEveryGrantedProcess drives 200 generated tax-refund
// processes per population through the engine and through a planner
// run each: every step the engine grants, the planner commits.
func TestPlannerCommitsEveryGrantedProcess(t *testing.T) {
	for _, n := range []int{3, 6, 12} {
		t.Run(fmt.Sprintf("%dc/%dm", n, n), func(t *testing.T) {
			eng, err := core.NewEngine(adi.NewStore(), []core.Policy{workload.TaxPolicy()})
			if err != nil {
				t.Fatal(err)
			}
			planner, err := NewPlanner(workflow.TaxRefundDefinition(), generatedTaxUsers(n, n), TaxRefundConstraints())
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.NewTax(workload.TaxConfig{Seed: 5, Clerks: n, Managers: n, Offices: 4})
			for p := 0; p < 200; p++ {
				run := planner.NewRun()
				for _, s := range gen.NextProcess() {
					dec, err := eng.Evaluate(s.Request)
					if err != nil {
						t.Fatal(err)
					}
					if dec.Effect != core.Grant {
						t.Fatalf("process %d: engine denies %s by %s", p, s.Task, s.Request.User)
					}
					if err := run.Commit(s.Task, s.Request.User); err != nil {
						t.Fatalf("process %d: engine grants %s by %s, planner refuses: %v", p, s.Task, s.Request.User, err)
					}
				}
			}
		})
	}
}

// TestPrecomputeGrowsCombinatorially pins the planner's up-front cost
// as the population grows: the valid assignments it enumerates and the
// search nodes it visits to do so. The engine has no such phase.
func TestPrecomputeGrowsCombinatorially(t *testing.T) {
	for _, c := range []struct{ n, assignments, nodes int }{
		{3, 36, 85},
		{5, 1_200, 1_631},
		{7, 8_820, 10_641},
		{9, 36_288, 41_563},
	} {
		p, err := NewPlanner(workflow.TaxRefundDefinition(), generatedTaxUsers(c.n, c.n), TaxRefundConstraints())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := p.Precompute()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Assignments != c.assignments || stats.Nodes != c.nodes {
			t.Errorf("%d clerks, %d managers: %d assignments, %d nodes; want %d, %d",
				c.n, c.n, stats.Assignments, stats.Nodes, c.assignments, c.nodes)
		}
	}
}

// generatedTaxUsers is the population workload.NewTax draws from
// ("clerk000".., "mgr000"..), as the planner has to know it.
func generatedTaxUsers(clerks, managers int) map[rbac.UserID][]rbac.RoleName {
	out := make(map[rbac.UserID][]rbac.RoleName)
	for i := 0; i < clerks; i++ {
		out[rbac.UserID(fmt.Sprintf("clerk%03d", i))] = []rbac.RoleName{"Clerk"}
	}
	for i := 0; i < managers; i++ {
		out[rbac.UserID(fmt.Sprintf("mgr%03d", i))] = []rbac.RoleName{"Manager"}
	}
	return out
}
