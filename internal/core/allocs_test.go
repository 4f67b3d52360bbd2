package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"msod/internal/bctx"
	"msod/internal/race"
	"msod/internal/rbac"
)

// TestEvaluateAllocs holds an evaluation to what it returns or retains.
// Every case names each allocation left; a budget that has to rise means
// the hot path grew one, and the reason belongs next to the number.
//
// A plain grant returns a shared entry of the engine's table of
// read-only grants (0; Decision.box), where it returned a Decision of
// its own (1), and a bank denial repeated in its period the period's
// shared denial (0; boundSlot.share). Every other evaluation returns
// one object (1), its Decision sized to its shape: a denial's Denial
// and a grant's started or closed names live in it. It is the
// allocation the PDP made when it copied the Decision to the heap for
// pdp.Decision.MSoD; a denial, a first step and a last step returned
// their Denial or their names' slice (1) here before, in that object
// now.
//
// Each case runs allocRuns+1 requests, every one in a context instance
// of its own (Period or process i) that prepare has put into the state
// the case needs, so all of them take the same path. AllocsPerRun
// reports the floor of the mean: growth that is amortised over many
// requests (a user's record bucket doubling, the index lists and maps
// of the store) does not reach one per request and is not budgeted.
//
// A bank request binds "Branch=*, Period=!" through the policy's names
// table, which holds one name per slot: whether the period's name is
// still there decides whether the bind builds one. So every bank row
// whose period was bound before it says which it measures (slots): the
// name found, or the name built because another period took its slot.
func TestEvaluateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const allocRuns, churnRuns, slotRuns = 200, 50, 50
	var period func(i int) string // the case's periods, set below
	both := append(bankPolicies(), taxPolicies()...)

	for _, tc := range []struct {
		name     string
		policies []Policy
		prepare  func(e *Engine, i int) // brings instance i into the starting state
		request  func(i int) Request
		want     Effect
		budget   float64
		runs     int // allocRuns when 0
		slots    slotUse
	}{
		{
			// Returned: the shared zero-count grant (0; it was the
			// Decision, 1). Step 1 finds no candidate policy for the
			// first component type: no lock, no store call, nothing
			// built.
			name: "unmatched context", policies: both,
			request: func(i int) Request {
				r := bankReq("alice", "Teller", "HandleCash", "York", period(i))
				r.Context = bctx.MustParse("Dept=d1, Project=" + period(i))
				return r
			},
			want: Grant, budget: 0,
		},
		{
			// Returned: a shared grant (0; it was the Decision, 1).
			// Built: the bound name "Branch=*, Period=p" (1), which
			// nothing bound before. Retained by the store: the new
			// instance (1), the list of its unique Period value (1).
			// The record goes to Append from the engine's commit
			// buffer, and its one role is the store's shared "Teller"
			// slice: it was 5 with a one-record slice (1) and a Roles
			// copy (1).
			name: "opening grant", policies: bankPolicies(),
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "York", period(i)) },
			want:    Grant, budget: 3,
		},
		{
			// "TaxOffice=!, taxRefundProcess=!" binds to the request's
			// own name (0). Returned: the Decision with Activated()'s
			// one name beside it (1); the name's slice was an
			// allocation of its own. Retained: the instance (1), the
			// list of its unique process value (1). It was 5 with the
			// record slice (1) and the Roles copy (1).
			name: "opening grant, first step", policies: taxPolicies(),
			request: func(i int) Request {
				return taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", period(i))
			},
			want: Grant, budget: 3,
		},
		{
			// Returned: a shared grant (0; it was the Decision, 1). The
			// bound name is the one the opener's grant bound, still in
			// its slot. It was 1 while every request built its bound
			// name (1), 3 with the record slice (1) and the store's
			// copy of the record's one-role slice, the rule's own (1);
			// the store now gives the record its shared "Teller" slice.
			name: "recorded grant under MMER", policies: bankPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, bankReq("opener", "Teller", "HandleCash", "York", period(i)), Grant)
			},
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "York", period(i)) },
			want:    Grant, budget: 0, slots: ownSlot, runs: slotRuns,
		},
		{
			// Returned: a shared grant (0; it was the Decision, 1).
			// Built: the bound name (1), another period's name in its
			// slot.
			name: "recorded grant under MMER, slot taken", policies: bankPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, bankReq("opener", "Teller", "HandleCash", "York", period(i)), Grant)
			},
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "York", period(i)) },
			want:    Grant, budget: 1, slots: oneSlot,
		},
		{
			// Returned: a shared grant (0; it was the Decision, 1). It
			// was 2 with the record slice (1) and the Roles copy (1).
			name: "recorded grant under MMEP", policies: taxPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", period(i)), Grant)
			},
			request: func(i int) Request {
				return taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", period(i))
			},
			want: Grant, budget: 0,
		},
		{
			// Returned: a shared grant (0; it was the Decision, 1). Two
			// policies record: the MMEP one over "Branch=York,
			// Period=p", which binds to the request's own name (0), and
			// the MMER one over "Branch=*, Period=p", whose name the
			// opener bound (0). The commit buffer holds both actions'
			// records, one each, and each goes to Append as its slice
			// of the buffer. It was 1 with the bound name (1).
			name: "recorded grant under two policies", policies: cashPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, bankReq("opener", "Teller", "HandleCash", "York", period(i)), Grant)
			},
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "York", period(i)) },
			want:    Grant, budget: 0, slots: ownSlot, runs: slotRuns,
		},
		{
			// Returned: a shared grant (0; it was the Decision, 1).
			// Built: the MMER policy's bound name (1), its slot taken.
			name: "recorded grant under two policies, slot taken", policies: cashPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, bankReq("opener", "Teller", "HandleCash", "York", period(i)), Grant)
			},
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "York", period(i)) },
			want:    Grant, budget: 1, slots: oneSlot,
		},
		{
			// The period's first denial: the period's shared denial,
			// boxed under the lock with the Decision and the Denial in
			// it (1), which the slot keeps until it binds another
			// period; the Denial was an allocation of its own. It is
			// values: Error renders its text only when first read. The
			// denial keeps the bound name alice's grant bound. It was 2
			// while the engine wrote every denial's text (1), 3 with the
			// bound name (1).
			name: "MMER deny", policies: bankPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, bankReq("alice", "Teller", "HandleCash", "York", period(i)), Grant)
			},
			request: func(i int) Request { return bankReq("alice", "Auditor", "Audit", "Leeds", period(i)) },
			want:    Deny, budget: 1, slots: ownSlot, runs: slotRuns,
		},
		{
			// Built: the bound name (1), its slot taken, which drops
			// another period's shared denial, and the period's shared
			// denial, with its Decision (1). It was 3 with the denial's
			// text (1).
			name: "MMER deny, slot taken", policies: bankPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, bankReq("alice", "Teller", "HandleCash", "York", period(i)), Grant)
			},
			request: func(i int) Request { return bankReq("alice", "Auditor", "Audit", "Leeds", period(i)) },
			want:    Deny, budget: 2, slots: oneSlot,
		},
		{
			// Nothing: a period's denial with the same rule, k, m and
			// matched policies as its first is the period's shared one,
			// and so is its text once read. It was 1, the Decision with
			// its Denial, and Error rendered the text (1) each time it
			// was read.
			name: "MMER deny, repeated in its period", policies: bankPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, bankReq("alice", "Teller", "HandleCash", "York", period(i)), Grant)
				mustEvaluate(t, e, bankReq("alice", "Auditor", "Audit", "York", period(i)), Deny)
			},
			request: func(i int) Request { return bankReq("alice", "Auditor", "Audit", "Leeds", period(i)) },
			want:    Deny, budget: 0, slots: ownSlot, runs: slotRuns,
		},
		{
			// Returned: the Decision with its Denial (1): the tax
			// policy binds no names table, so no denial shares it. It
			// was 2 with its text (1).
			name: "MMEP deny", policies: taxPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", period(i)), Grant)
				mustEvaluate(t, e, taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", period(i)), Grant)
			},
			request: func(i int) Request {
				return taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, "Leeds", period(i))
			},
			want: Deny, budget: 1,
		},
		{
			// Returned: the Decision with Closed()'s one name beside it
			// (1), what a cluster's other nodes are told to close, the
			// period's name the grants bound; the name's slice was an
			// allocation of its own. The purge itself allocates
			// nothing. It was 2 with the bound name (1).
			name: "last-step purge", policies: bankPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, bankReq("alice", "Teller", "HandleCash", "York", period(i)), Grant)
				mustEvaluate(t, e, bankReq("carol", "Teller", "HandleCash", "Leeds", period(i)), Grant)
			},
			request: func(i int) Request { return bankReq("bob", "Auditor", "CommitAudit", "York", period(i)) },
			want:    Grant, budget: 1, slots: ownSlot, runs: slotRuns,
		},
		{
			// Built: the bound name (1), its slot taken. Returned: the
			// Decision with Closed()'s name (1).
			name: "last-step purge, slot taken", policies: bankPolicies(),
			prepare: func(e *Engine, i int) {
				mustEvaluate(t, e, bankReq("alice", "Teller", "HandleCash", "York", period(i)), Grant)
				mustEvaluate(t, e, bankReq("carol", "Teller", "HandleCash", "Leeds", period(i)), Grant)
			},
			request: func(i int) Request { return bankReq("bob", "Auditor", "CommitAudit", "York", period(i)) },
			want:    Grant, budget: 2, slots: oneSlot,
		},
		{
			// Returned: a shared grant (0; it was the Decision, 1).
			// Built: the bound name (1), which nothing bound before.
			// Retained: nothing the store does not hold already, where
			// "opening grant" retains 2, because last steps closed as
			// many instances first: the instance, the list of its
			// Period value and alice's emptied bucket are ones those
			// purges freed. The store keeps 64 of each, so the row runs
			// fewer requests than that.
			name: "opening grant after a last step closed the previous instance", policies: bankPolicies(),
			prepare: func(e *Engine, i int) {
				if i > 0 {
					return
				}
				for j := range churnRuns + 1 {
					mustEvaluate(t, e, bankReq("alice", "Teller", "HandleCash", "York", "closed"+period(j)), Grant)
				}
				for j := range churnRuns + 1 {
					mustEvaluate(t, e, bankReq("bob", "Auditor", "CommitAudit", "York", "closed"+period(j)), Grant)
				}
			},
			request: func(i int) Request { return bankReq("alice", "Teller", "HandleCash", "York", period(i)) },
			want:    Grant, budget: 1, runs: churnRuns,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := newEngine(t, tc.policies)
			runs := allocRuns
			if tc.runs != 0 {
				runs = tc.runs
			}
			period = func(i int) string { return fmt.Sprintf("p%d", i) }
			switch tc.slots {
			case ownSlot:
				period = ownSlots(t, e, runs+1)
			case oneSlot:
				e.bindMask = 0
			}
			reqs := make([]Request, runs+1)
			for i := range reqs {
				if tc.prepare != nil {
					tc.prepare(e, i)
				}
				reqs[i] = tc.request(i)
			}
			i := 0
			got := testing.AllocsPerRun(runs, func() {
				dec, err := e.Evaluate(reqs[i])
				if err != nil || dec.Effect != tc.want {
					t.Fatalf("request %d: %v, %v; want %v", i, dec.Effect, err, tc.want)
				}
				i++
			})
			if got != tc.budget {
				t.Errorf("%v allocations per evaluation, budget %v (lower it too when the path loses one)", got, tc.budget)
			}
		})
	}
}

// slotUse is how a TestEvaluateAllocs row's requests find the names
// table of the bank policy, whose "Branch=*, Period=!" binds a name of
// its own (see Engine.bind).
type slotUse uint8

const (
	// anySlot leaves the table as the row's requests leave it: for a
	// row whose requests bind a name nothing bound before, or none.
	anySlot slotUse = iota
	// ownSlot gives every period of the row a slot of its own, so each
	// request finds the name its prepare bound.
	ownSlot
	// oneSlot narrows the table's hash so that every binding takes one
	// slot: each request finds the name of the period prepared or
	// decided last, another one.
	oneSlot
)

// ownSlots returns, as a period function, n periods whose bindings
// under e's first mixed program take n different slots of its table.
func ownSlots(t *testing.T, e *Engine, n int) func(int) string {
	t.Helper()
	if n > boundSlots {
		t.Fatalf("%d periods cannot have %d slots of their own", n, boundSlots)
	}
	pr := &e.programs[slices.IndexFunc(e.programs, func(pr program) bool { return pr.names != nil })]
	taken := make(map[uint64]bool)
	var periods []string
	for j := 0; len(periods) < n; j++ {
		p := fmt.Sprintf("p%d", j)
		if s := e.slot(pr, bankReq("", "", "", "York", p).Context); !taken[s] {
			taken[s] = true
			periods = append(periods, p)
		}
	}
	return func(i int) string { return periods[i] }
}

// TestDecisionSize: a plain grant is a shared entry of the engine's
// table (Decision.box), no allocation; any other evaluation's one
// allocation is its Decision sized to the decision's shape, and each
// shape's size class is no larger than the allocations it replaced: the
// 64-byte Decision the PDP copied to the heap for pdp.Decision.MSoD, and
// beside it the 80-byte Denial, or the slice append grew for the bound
// names (24 bytes for one name, then 48 for two). A 64-byte Decision
// would put the one-name shape in the 96-byte class, 8 bytes past the
// two allocations it replaced: that is why Recorded and Purged are 32
// bits. The Denial's pointer to a shared denial's object fills the
// denial shape's 144-byte class exactly; that object, boxed under the
// lock by a period's first denial (boundSlot.share), is not a box
// shape.
func TestDecisionSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	names := []bctx.Name{bctx.MustParse("A=1"), bctx.MustParse("A=1, B=2")}
	for _, tc := range []struct {
		name     string
		refused  Denial
		bounds   []bctx.Name
		replaces []uint64 // the size classes of the allocations it replaced
	}{
		{name: "plain grant"}, // the table's zero-count entry, shared
		{name: "denial", refused: Denial{Rule: "MMER[0]"}, replaces: []uint64{64, 80}},
		{name: "one name", bounds: names[:1], replaces: []uint64{64, 24}},
		{name: "two names", bounds: names, replaces: []uint64{64, 24, 48}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs, bytes := allocsAndBytes(func() { sink = Decision{}.box(tc.refused, tc.bounds) })
			if tc.replaces == nil {
				if allocs != 0 || sink != &plainGrants[0][0] {
					t.Errorf("%d allocations of %d bytes, %p; want none, the shared %p", allocs, bytes, sink, &plainGrants[0][0])
				}
				return
			}
			var replaced uint64
			for _, class := range tc.replaces {
				replaced += class
			}
			if allocs != 1 || bytes > replaced {
				t.Errorf("%d allocations of %d bytes; want one of at most %d (%v)", allocs, bytes, replaced, tc.replaces)
			}
			t.Logf("one allocation of %d bytes, where %v were", bytes, tc.replaces)
		})
	}
}

// sink keeps what TestDecisionSize boxes on the heap.
var sink *Decision

// allocsAndBytes is what one call of f allocates, as testing.AllocsPerRun
// measures it: the mean over 100 calls, on one P. Bytes are size
// classes, not the sizes asked for.
func allocsAndBytes(f func()) (allocs, bytes uint64) {
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

func mustEvaluate(t testing.TB, e *Engine, req Request, want Effect) {
	t.Helper()
	dec, err := e.Evaluate(req)
	if err != nil || dec.Effect != want {
		t.Fatalf("Evaluate(%+v) = %v, %v; want %v", req, dec.Effect, err, want)
	}
}

// TestDenialTextIsFmtText pins Denial.Error, written by hand, to the fmt
// verbs it replaced, over operands that need quoting: context values
// bound under "!", and the policies' own context text.
func TestDenialTextIsFmtText(t *testing.T) {
	for _, value := range []string{"2006", `a "quoted" value`, "tab\tnew\nline", "ünï©ode", "bad\xffutf8",
		"a context value far longer than the sixty-four bytes of stack scratch the quoting helper starts with"} {
		e, _ := newEngine(t, append(bankPolicies(), taxPolicies()...))

		mustEvaluate(t, e, bankReq("alice", "Teller", "HandleCash", "York", value), Grant)
		req := bankReq("alice", "Auditor", "Audit", `Le"eds`, value)
		req.Roles = []rbac.RoleName{"Clerk", "Auditor"}
		dec, err := e.Evaluate(req)
		if err != nil || dec.Effect != Deny {
			t.Fatalf("MMER: %v, %v", dec.Effect, err)
		}
		checkDenialText(t, dec.Denial, "MMER[0]", "Branch=*, Period="+value, "holds 1 conflicting role(s)")

		mustEvaluate(t, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, value, "p1"), Grant)
		req = taxReq("m1", "Manager", "approve/disapproveCheck", checkTarget, value, "p1")
		mustEvaluate(t, e, req, Grant)
		dec, err = e.Evaluate(req)
		if err != nil || dec.Effect != Deny {
			t.Fatalf("MMEP: %v, %v", dec.Effect, err)
		}
		checkDenialText(t, dec.Denial, "MMEP[1]", "TaxOffice="+value+", taxRefundProcess=p1", "exercised 1 conflicting privilege(s)")
	}

	// Context types and values that need quoting — a '"', a tab,
	// non-ASCII, invalid UTF-8, a value past the 64 bytes of stack
	// scratch — in the policies' own text and in the names bound under
	// "*" and "!", with "*" first in one policy and "!" first in the
	// other.
	long := strings.Repeat("é", 33) + "\xff\"" // 68 bytes
	e, _ := newEngine(t, []Policy{
		{
			Context: bctx.MustParse("Re\"gion=tab\there, Br\tanch=*, P\xffériod=!"),
			MMER:    []MMERRule{{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}},
		},
		{
			Context: bctx.MustParse("Öff\"ice=!, pro\tcess=*"),
			MMEP: []MMEPRule{{Privileges: []rbac.Permission{
				{Operation: "prepare", Object: "check"}, {Operation: "approve", Object: "check"},
			}, Cardinality: 2}},
		},
	})
	mmer := func(role, period string) Request {
		return Request{User: "u", Roles: []rbac.RoleName{rbac.RoleName(role)}, Operation: "op", Target: "t",
			Context: bctx.MustParse("Re\"gion=tab\there, Br\tanch=ünï\"code, P\xffériod=" + period)}
	}
	mustEvaluate(t, e, mmer("Teller", long), Grant)
	dec, err := e.Evaluate(mmer("Auditor", long))
	if err != nil || dec.Effect != Deny {
		t.Fatalf("MMER over quoted contexts: %v, %v", dec.Effect, err)
	}
	checkDenialText(t, dec.Denial, "MMER[0]", "Re\"gion=tab\there, Br\tanch=*, P\xffériod="+long, "holds 1 conflicting role(s)")

	mmep := func(op string) Request {
		return Request{User: "u", Roles: []rbac.RoleName{"Clerk"}, Operation: rbac.Operation(op), Target: "check",
			Context: bctx.MustParse("Öff\"ice=" + long + ", pro\tcess=p\t1")}
	}
	mustEvaluate(t, e, mmep("prepare"), Grant)
	dec, err = e.Evaluate(mmep("approve"))
	if err != nil || dec.Effect != Deny {
		t.Fatalf("MMEP over quoted contexts: %v, %v", dec.Effect, err)
	}
	checkDenialText(t, dec.Denial, "MMEP[0]", "Öff\"ice="+long+", pro\tcess=*", "exercised 1 conflicting privilege(s)")
}

// checkDenialText holds an engine-built denial to its fields — every
// case is 1 held of a forbidden cardinality of 2 — and its Error to the
// fmt text of them, whose count of what is held is counted.
func checkDenialText(t *testing.T, d *Denial, rule, bound, counted string) {
	t.Helper()
	if d.Rule != rule || d.BoundContext.String() != bound || d.Held != 1 || d.Cardinality != 2 {
		t.Errorf("denial %s bound %q, %d of %d; want %s bound %q, 1 of 2",
			d.Rule, d.BoundContext, d.Held, d.Cardinality, rule, bound)
	}
	want := fmt.Sprintf("msod: denied by %s of policy %q (bound %q): the user already %s in this context (forbidden cardinality %d)",
		d.Rule, d.PolicyContext, d.BoundContext, counted, d.Cardinality)
	if got := d.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

// TestDenialTextIsBoundedByItsContexts: a denial's text names the rule,
// the two contexts and k against m, and nothing else of the request, so
// a user and a target of 300,000 '<' each leave it under 1 KB. It
// quoted the user (and, under MMEP, the operation and target) while the
// engine wrote it.
func TestDenialTextIsBoundedByItsContexts(t *testing.T) {
	huge := strings.Repeat("<", 300_000)
	e, _ := newEngine(t, []Policy{{
		Context: bctx.MustParse("Branch=*, Period=!"),
		MMER:    []MMERRule{{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}},
		MMEP: []MMEPRule{{Privileges: []rbac.Permission{
			{Operation: "prepare", Object: rbac.Object(huge)}, {Operation: "approve", Object: rbac.Object(huge)},
		}, Cardinality: 2}},
	}})
	req := func(role, op string) Request {
		return Request{User: rbac.UserID(huge), Roles: []rbac.RoleName{rbac.RoleName(role)},
			Operation: rbac.Operation(op), Target: rbac.Object(huge), Context: bctx.MustParse("Branch=York, Period=p1")}
	}
	mustEvaluate(t, e, req("Teller", "prepare"), Grant)
	for _, denied := range []Request{req("Auditor", "count"), req("Teller", "approve")} {
		dec, err := e.Evaluate(denied)
		if err != nil || dec.Effect != Deny {
			t.Fatalf("%s as %v: %v, %v; want a denial", denied.Operation, denied.Roles, dec.Effect, err)
		}
		if text := dec.Denial.Error(); len(text) >= 1<<10 || strings.Contains(text, "<") {
			t.Errorf("%s as %v: a %d-byte denial text %.200q; want under 1 KB, quoting no user or target",
				denied.Operation, denied.Roles, len(text), text)
		}
	}
}
