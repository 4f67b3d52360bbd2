package pdp

import (
	"context"
	"fmt"
	"testing"

	"msod/internal/audit"
	"msod/internal/inspect"
	"msod/internal/policy"
	"msod/internal/race"
)

// TestDecideAllocs is the budget of PDP.DecideCtx and PDP.AdviseCtx
// around the engine — the benchmark's pdp.decide_allocs as a table. The
// context carries no trace and no explain record, so spans cost nothing
// here; internal/core/allocs_test.go names the engine's share and
// internal/audit/allocs_test.go the trail append's.
//
// The validated subject costs nothing: Decision.Roles is the caller's
// Request.Roles, and the store keeps its own roles: one shared slice
// per role name, a copy of a multi-role set
// (TestRetainedHistoryOwnsItsRoles). It was 1 more on every decision
// while the PDP copied the roles into the Decision. "bare" is a PDP
// with neither observer nor trail; "observed" has both, and then every
// decision also pays the event (2: Roles as []string, the request
// context's text — built once, shared by the stream event and the trail
// entry). The trail append itself allocates nothing (TestAppendAllocs);
// it was 3 while encoding/json marshalled the entry.
//
// The rows' requests are in one period, as a bank's are: its name,
// "Branch=*, Period=p", is bound once and found in the engine's names
// table by every later request. "opening grant" opens a period of its
// own each time, and builds its name.
//
// Budgets are exact; a change that moves one edits the table and names
// the allocation.
func TestDecideAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const allocRuns = 200
	period := func(int) string { return "p" }
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		advise  bool
		prepare func(p *PDP, i int) // brings instance i into the starting state
		request func(i int) Request
		allowed bool
		phase   Phase
		budget  map[string]float64
	}{
		{
			// The engine's decision moved to the heap as Decision.MSoD
			// (1); a recorded grant under MMER allocates nothing in the
			// engine. It was 2 / 4 while every request built its bound
			// name (1), 4 / 6 while the engine built a record slice for
			// the store (1) and the store copied the record's one role
			// (1). Observed: + event 2.
			name: "grant",
			prepare: func(p *PDP, i int) {
				mustDecide(t, p, bankReq("opener", "Teller", "HandleCash", "till", "York", period(i)), true)
			},
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "till", "York", period(i)) },
			allowed: true, phase: PhaseGranted,
			budget: map[string]float64{"bare": 1, "observed": 3},
		},
		{
			// Decision.MSoD (1) and the engine's three for an opening
			// grant: the bound name, which nothing bound before (1), and
			// the store's new instance and the list of its unique Period
			// value (2). Observed: + event 2.
			name: "opening grant",
			request: func(i int) Request {
				return bankReq("alice", "Teller", "HandleCash", "till", "York", fmt.Sprint("p", i))
			},
			allowed: true, phase: PhaseGranted,
			budget: map[string]float64{"bare": 4, "observed": 6},
		},
		{
			// Decision.MSoD (1) and the engine's two for an MMER
			// denial: the Denial and its one text (2), which is
			// Denial.Error and, as its tail, Denial.Reason; so
			// Decision.Reason costs nothing. It was 4 while every request
			// built its bound name (1), 8 while the subject was copied
			// (1) and Denial.Error rendered the two context texts and the
			// sentence again (3). Observed: + event 2.
			name: "MSoD deny",
			prepare: func(p *PDP, i int) {
				mustDecide(t, p, bankReq("alice", "Teller", "HandleCash", "till", "York", period(i)), true)
			},
			request: func(i int) Request { return bankReq("alice", "Auditor", "Audit", "ledger", "Leeds", period(i)) },
			allowed: false, phase: PhaseMSoD,
			budget: map[string]float64{"bare": 3, "observed": 5},
		},
		{
			// Nothing: the reason is a constant and the engine never
			// runs. It was 1 while the reason was a concatenation
			// naming the permission (1), 4 while the subject was copied
			// (1) and the reason was Sprintf's: the permission boxed (1),
			// its text (1), the sentence (1). Observed: + event 2.
			name:    "RBAC deny",
			request: func(i int) Request { return bankReq("alice", "Teller", "Audit", "ledger", "York", period(i)) },
			allowed: false, phase: PhaseRBAC,
			budget: map[string]float64{"bare": 0, "observed": 2},
		},
		{
			// An advisory builds what the decision would —
			// Decision.MSoD (1) — and counts the records in the engine's
			// commit buffer; it was 2 while every request built its bound
			// name (1), 3 while the records were a slice of their own
			// (1). It publishes and appends nothing, so both columns are
			// the same.
			name:   "advisory grant",
			advise: true,
			prepare: func(p *PDP, i int) {
				mustDecide(t, p, bankReq("opener", "Teller", "HandleCash", "till", "York", period(i)), true)
			},
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "till", "York", period(i)) },
			allowed: true, phase: PhaseGranted,
			budget: map[string]float64{"bare": 1, "observed": 1},
		},
	} {
		for _, kind := range []string{"bare", "observed"} {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				cfg := Config{Policy: pol}
				if kind == "observed" {
					trail, err := audit.NewWriter(t.TempDir(), []byte("allocs-key"), 0)
					if err != nil {
						t.Fatal(err)
					}
					defer trail.Close()
					broker := inspect.NewBroker(32)
					cfg.Trail = trail
					cfg.Observer = func(ev inspect.DecisionEvent) { broker.Publish(ev) }
				}
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				decide := p.DecideCtx
				if tc.advise {
					decide = p.AdviseCtx
				}
				reqs := make([]Request, allocRuns+1)
				for i := range reqs {
					if tc.prepare != nil {
						tc.prepare(p, i)
					}
					reqs[i] = tc.request(i)
				}
				ctx := context.Background()
				i := 0
				got := testing.AllocsPerRun(allocRuns, func() {
					dec, err := decide(ctx, reqs[i])
					if err != nil || dec.Allowed != tc.allowed || dec.Phase != tc.phase {
						t.Fatalf("request %d: %+v, %v; want allowed=%v phase=%s", i, dec, err, tc.allowed, tc.phase)
					}
					i++
				})
				if got != tc.budget[kind] {
					t.Errorf("%v allocations per decision, budget %v (lower it too when the path loses one)", got, tc.budget[kind])
				}
			})
		}
	}
}

func mustDecide(t *testing.T, p *PDP, req Request, allowed bool) {
	t.Helper()
	dec, err := p.Decide(req)
	if err != nil || dec.Allowed != allowed {
		t.Fatalf("Decide(%+v) = %+v, %v; want allowed=%v", req, dec, err, allowed)
	}
}
