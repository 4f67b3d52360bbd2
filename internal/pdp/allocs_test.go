package pdp

import (
	"context"
	"fmt"
	"testing"

	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/inspect"
	"msod/internal/policy"
	"msod/internal/race"
	"msod/internal/rbac"
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
// with neither observer nor trail; "observed" has both, and then an
// MSoD denial also pays the event's reason (1), but for a period's
// shared denial whose text a reader rendered before. The event itself,
// shared by the stream event and the trail entry, allocates nothing:
// its context text is the request's ContextText and its roles the
// request's RoleText, which every row spells as the shard's requests
// do. Every observed row was 1 more while the event converted the roles
// to []string (1), which a caller without RoleText, or a subject of
// credentials, pays still, and 2 more while it rendered the context
// too, as a caller without ContextText does. The trail append itself
// allocates nothing (TestAppendAllocs); it was 3 while encoding/json
// marshalled the entry.
//
// The bank rows' requests are in one period, as a bank's are: its name,
// "Branch=*, Period=p", is bound once and found in the engine's names
// table by every later request. "opening grant" opens a period of its
// own each time, and builds its name. The tax rows decide a process's
// first and last steps, the only decisions that return Activated or
// Closed names, and a denial in a process of its own, which no other
// denial shares.
//
// Every row that reaches the engine pays its decision (1): the one
// object the engine returns, sized to its shape, with a denial's Denial
// or a grant's started or closed names inside it. A plain grant, one
// that starts and closes nothing, pays nothing for it: the engine hands
// out a read-only entry of its table of plain grants, which
// Decision.MSoD keeps; it was 1 more while every grant was an object of
// its own.
//
// Budgets are exact; a change that moves one edits the table and names
// the allocation.
func TestDecideAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const allocRuns = 200
	for _, tc := range decideCases() {
		for _, kind := range decideKinds {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				p := newDecideRig(t, kind, tc.policy).pdp(t)
				decide := tc.decide(p)
				reqs := tc.requests(t, p, allocRuns+1)
				ctx := context.Background()
				i := 0
				got := testing.AllocsPerRun(allocRuns, func() {
					dec, err := decide(ctx, reqs[i])
					tc.check(t, dec, err)
					i++
				})
				if got != tc.budget[kind] {
					t.Errorf("%v allocations per decision, budget %v (lower it too when the path loses one)", got, tc.budget[kind])
				}
			})
		}
	}
}

// BenchmarkDecide decides each of TestDecideAllocs' rows, bare and
// observed, so -benchmem reports the bytes of a PDP decision beside the
// allocations the test pins. Every batch of requests is decided by a
// PDP of its own, built and prepared outside the timer, so the retained
// ADI stays the size a batch makes it; the observed PDPs share one
// trail.
func BenchmarkDecide(b *testing.B) {
	const batch = 256
	for _, tc := range decideCases() {
		for _, kind := range decideKinds {
			b.Run(tc.name+"/"+kind, func(b *testing.B) {
				rig := newDecideRig(b, kind, tc.policy)
				ctx := context.Background()
				var decide func(context.Context, Request) (Decision, error)
				var reqs []Request
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					if len(reqs) == 0 {
						b.StopTimer()
						p := rig.pdp(b)
						decide, reqs = tc.decide(p), tc.requests(b, p, batch)
						b.StartTimer()
					}
					dec, err := decide(ctx, reqs[0])
					tc.check(b, dec, err)
					reqs = reqs[1:]
				}
			})
		}
	}
}

// decideKinds are the PDPs a row is decided by: "bare" has neither
// observer nor trail, "observed" both.
var decideKinds = []string{"bare", "observed"}

// decideCase is one row of TestDecideAllocs.
type decideCase struct {
	name    string
	policy  string // the PDP's policy XML: bankPolicyXML when empty
	advise  bool
	prepare func(tb testing.TB, p *PDP, i int) // brings instance i into the starting state
	request func(i int) Request
	allowed bool
	phase   Phase
	budget  map[string]float64
}

// requests prepares instances 0..n-1 on p and returns their requests.
func (tc decideCase) requests(tb testing.TB, p *PDP, n int) []Request {
	reqs := make([]Request, 0, n)
	for i := range n {
		if tc.prepare != nil {
			tc.prepare(tb, p, i)
		}
		reqs = append(reqs, tc.request(i))
	}
	return reqs
}

// check fails tb unless a decision is the row's.
func (tc decideCase) check(tb testing.TB, dec Decision, err error) {
	tb.Helper()
	if err != nil || dec.Allowed != tc.allowed || dec.Phase != tc.phase {
		tb.Fatalf("%+v, %v; want allowed=%v phase=%s", dec, err, tc.allowed, tc.phase)
	}
}

// decide is the entry the row decides through on p.
func (tc decideCase) decide(p *PDP) func(context.Context, Request) (Decision, error) {
	if tc.advise {
		return p.AdviseCtx
	}
	return p.DecideCtx
}

// decideRig builds the PDPs of one kind over one policy: "bare" has
// neither observer nor trail; "observed" has an observer feeding a
// broker, and one trail that every PDP it builds appends to.
type decideRig struct {
	pol      *policy.RBACPolicy
	observed bool
	trail    *audit.Writer
}

func newDecideRig(tb testing.TB, kind, policyXML string) decideRig {
	tb.Helper()
	if policyXML == "" {
		policyXML = bankPolicyXML
	}
	pol, err := policy.ParseRBACPolicy([]byte(policyXML))
	if err != nil {
		tb.Fatal(err)
	}
	rig := decideRig{pol: pol, observed: kind == "observed"}
	if rig.observed {
		if rig.trail, err = audit.NewWriter(tb.TempDir(), []byte("allocs-key"), 0); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { rig.trail.Close() })
	}
	return rig
}

func (rig decideRig) pdp(tb testing.TB) *PDP {
	tb.Helper()
	cfg := Config{Policy: rig.pol}
	if rig.observed {
		broker := inspect.NewBroker(32)
		cfg.Trail = rig.trail
		cfg.Observer = func(ev inspect.DecisionEvent) { broker.Publish(ev) }
	}
	p, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// decideCases are TestDecideAllocs' rows.
func decideCases() []decideCase {
	period := func(int) string { return "p" }
	return []decideCase{
		{
			// Nothing in the engine: its decision is the shared plain
			// grant, which Decision.MSoD keeps; a recorded grant under
			// MMER allocates nothing else there. It was 1 / 2 while the
			// grant was an object of its own (1), 2 / 4 while every
			// request built its bound name (1), 4 / 6 while the engine
			// built a record slice for the store (1) and the store
			// copied the record's one role (1). Observed: nothing
			// more; it was 1 more while the event converted the roles
			// (1), as every observed row was.
			name: "grant",
			prepare: func(tb testing.TB, p *PDP, i int) {
				mustDecide(tb, p, bankReq("opener", "Teller", "HandleCash", "till", "York", period(i)), true)
			},
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "till", "York", period(i)) },
			allowed: true, phase: PhaseGranted,
			budget: map[string]float64{"bare": 0, "observed": 0},
		},
		{
			// The engine's three for an opening grant: the bound name,
			// which nothing bound before (1), and the store's new
			// instance and the list of its unique Period value (2). Its
			// decision is the shared plain grant; it was 4 / 5 while
			// that was an object of its own (1).
			name: "opening grant",
			request: func(i int) Request {
				return bankReq("alice", "Teller", "HandleCash", "till", "York", fmt.Sprint("p", i))
			},
			allowed: true, phase: PhaseGranted,
			budget: map[string]float64{"bare": 3, "observed": 3},
		},
		{
			// A tax process's last step by the clerk who prepared its
			// check, each in a process of its own: MMEP[0] refuses it.
			// "TaxOffice=!, taxRefundProcess=!" binds no names table,
			// so no denial shares it: the engine's decision with its
			// Denial beside it (1), which is values. Bare, nothing
			// renders it: Decision.Reason() would, when called.
			// Observed: + the denial's text (1), rendered once for the
			// event and kept for Reason(). It was 2 / 5 while the PDP
			// copied the engine's decision to the heap (1) and the
			// engine returned the Denial apart (1), 3 / 5 while the
			// engine wrote every denial's text (1), 8 while the subject
			// was copied (1) and Denial.Error rendered the two context
			// texts and the sentence again (3). The row denied a bank
			// teller turned auditor in one period, 1 / 3, until every
			// such denial was the period's shared one: "MMER deny,
			// repeated in its period".
			name:   "MSoD deny",
			policy: taxPolicyXML,
			prepare: func(tb testing.TB, p *PDP, i int) {
				mustDecide(tb, p, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", fmt.Sprint("t", i)), true)
			},
			request: func(i int) Request {
				return taxReq("c1", "Clerk", "confirmCheck", auditTarget, "Leeds", fmt.Sprint("t", i))
			},
			allowed: false, phase: PhaseMSoD,
			budget: map[string]float64{"bare": 1, "observed": 2},
		},
		{
			// A bank teller turned auditor in the period, as a bank's
			// conflicting requests are: nothing. The engine's decision
			// is the period's shared denial (core's boundSlot.share),
			// whose text its first reader rendered, once: observed, the
			// event's reason is that text. The period's first denial
			// boxed the shared one (1), and its first reading rendered
			// the text (1); over the row's requests they do not reach
			// one per decision (internal/core's TestEvaluateAllocs pins
			// the box).
			name: "MMER deny, repeated in its period",
			prepare: func(tb testing.TB, p *PDP, i int) {
				mustDecide(tb, p, bankReq("alice", "Teller", "HandleCash", "till", "York", period(i)), true)
			},
			request: func(i int) Request { return bankReq("alice", "Auditor", "Audit", "ledger", "Leeds", period(i)) },
			allowed: false, phase: PhaseMSoD,
			budget: map[string]float64{"bare": 0, "observed": 0},
		},
		{
			// Nothing: the reason is a constant and the engine never
			// runs. It was 1 while the reason was a concatenation
			// naming the permission (1), 4 while the subject was copied
			// (1) and the reason was Sprintf's: the permission boxed (1),
			// its text (1), the sentence (1).
			name:    "RBAC deny",
			request: func(i int) Request { return bankReq("alice", "Teller", "Audit", "ledger", "York", period(i)) },
			allowed: false, phase: PhaseRBAC,
			budget: map[string]float64{"bare": 0, "observed": 0},
		},
		{
			// A tax process's first step, each in a process of its
			// own, as gateway_tax's shards open one on 1 decision in 5.
			// The engine's decision with Activated()'s one name beside
			// it (1) — "TaxOffice=!, taxRefundProcess=!" binds to the
			// request's own name — and the store's new instance and
			// the list of its unique process value (2). It was 4 / 6
			// while the PDP copied the engine's decision to the heap (1)
			// beside the name's slice (1).
			name:   "FirstStep grant",
			policy: taxPolicyXML,
			request: func(i int) Request {
				return taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", fmt.Sprint("t", i))
			},
			allowed: true, phase: PhaseGranted,
			budget: map[string]float64{"bare": 3, "observed": 3},
		},
		{
			// The process's last step, by another clerk, after its
			// first step opened it: the engine's decision with
			// Closed()'s one name beside it (1). The purge allocates
			// nothing: the store keeps what it frees for the next
			// first step. It was 2 / 4 while the PDP copied the
			// engine's decision to the heap (1) beside the name's slice
			// (1).
			name:   "LastStep grant",
			policy: taxPolicyXML,
			prepare: func(tb testing.TB, p *PDP, i int) {
				mustDecide(tb, p, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", fmt.Sprint("t", i)), true)
			},
			request: func(i int) Request {
				return taxReq("c2", "Clerk", "confirmCheck", auditTarget, "Leeds", fmt.Sprint("t", i))
			},
			allowed: true, phase: PhaseGranted,
			budget: map[string]float64{"bare": 1, "observed": 1},
		},
		{
			// An advisory builds what the decision would — nothing: its
			// decision is the shared plain grant an evaluation returns —
			// and counts the records in the engine's commit buffer; it
			// was 1 while the grant was an object of its own (1), 2
			// while every request built its bound name (1), 3 while the
			// records were a slice of their own (1). It publishes and
			// appends nothing, so both columns are the same.
			name:   "advisory grant",
			advise: true,
			prepare: func(tb testing.TB, p *PDP, i int) {
				mustDecide(tb, p, bankReq("opener", "Teller", "HandleCash", "till", "York", period(i)), true)
			},
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "till", "York", period(i)) },
			allowed: true, phase: PhaseGranted,
			budget: map[string]float64{"bare": 0, "observed": 0},
		},
	}
}

func mustDecide(t testing.TB, p *PDP, req Request, allowed bool) {
	t.Helper()
	dec, err := p.Decide(req)
	if err != nil || dec.Allowed != allowed {
		t.Fatalf("Decide(%+v) = %+v, %v; want allowed=%v", req, dec, err, allowed)
	}
}

// taxPolicyXML is the paper's tax refund process (§3): a FirstStep that
// opens each process and a LastStep that closes it.
const taxPolicyXML = `
<RBACPolicy id="tax-1">
  <RoleList><Role value="Clerk"/><Role value="Manager"/></RoleList>
  <TargetAccessPolicy>
    <Grant role="Clerk" operation="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
    <Grant role="Clerk" operation="confirmCheck" target="http://secret.location.com/audit"/>
    <Grant role="Manager" operation="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="TaxOffice=!, taxRefundProcess=!">
      <FirstStep operation="prepareCheck" targetURI="http://www.myTaxOffice.com/Check"/>
      <LastStep operation="confirmCheck" targetURI="http://secret.location.com/audit"/>
      <MMEP ForbiddenCardinality="2">
        <Operation value="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="confirmCheck" target="http://secret.location.com/audit"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

const (
	checkTarget = "http://www.myTaxOffice.com/Check"
	auditTarget = "http://secret.location.com/audit"
)

func taxReq(user, role, op, target, office, process string) Request {
	text := "TaxOffice=" + office + ", taxRefundProcess=" + process
	return Request{
		User:        rbac.UserID(user),
		Roles:       []rbac.RoleName{rbac.RoleName(role)},
		RoleText:    []string{role},
		Operation:   rbac.Operation(op),
		Target:      rbac.Object(target),
		Context:     bctx.MustParse(text),
		ContextText: text,
	}
}
