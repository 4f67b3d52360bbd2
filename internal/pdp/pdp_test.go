package pdp

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/credential"
	"msod/internal/inspect"
	"msod/internal/policy"
	"msod/internal/rbac"
)

const bankPolicyXML = `
<RBACPolicy id="bank-1">
  <RoleList>
    <Role value="Teller"/>
    <Role value="Auditor"/>
    <Role value="RetainedADIController"/>
  </RoleList>
  <RoleAssignmentPolicy>
    <Assignment soa="hr.bank.example" role="Teller"/>
    <Assignment soa="hr.bank.example" role="Auditor"/>
    <Assignment soa="hr.bank.example" role="RetainedADIController"/>
  </RoleAssignmentPolicy>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
    <Grant role="Auditor" operation="CommitAudit" target="audit"/>
    <Grant role="RetainedADIController" operation="purgeContext" target="msod:retainedADI"/>
    <Grant role="RetainedADIController" operation="purgeUser" target="msod:retainedADI"/>
    <Grant role="RetainedADIController" operation="purgeBefore" target="msod:retainedADI"/>
    <Grant role="RetainedADIController" operation="stats" target="msod:retainedADI"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

func bankPDP(t *testing.T) *PDP {
	t.Helper()
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bankReq builds a request as the shard does, with the context's and
// the roles' text beside their names.
func bankReq(user, role, op, target, branch, period string) Request {
	text := "Branch=" + branch + ", Period=" + period
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

// TestEventContextIsCanonical: the events of a decision carry the
// request context's canonical text, whether the caller spelled it so,
// spelled it otherwise, or gave no text.
func TestEventContextIsCanonical(t *testing.T) {
	var got []string
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Policy: pol, Observer: func(ev inspect.DecisionEvent) { got = append(got, ev.Context) }})
	if err != nil {
		t.Fatal(err)
	}
	const canonical = "Branch=York, Period=p"
	for _, text := range []string{canonical, " Branch = York ,Period=p ", ""} {
		req := bankReq("alice", "Teller", "HandleCash", "till", "York", "p")
		req.ContextText = text
		if _, err := p.Decide(req); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{canonical, canonical, canonical}; !slices.Equal(got, want) {
		t.Fatalf("event contexts %q, want %q", got, want)
	}
}

// TestEventRolesAreTheRequests: the events of a decision whose subject
// is the request's Roles carry its RoleText itself when that spells
// them, and a conversion when it does not or is absent; a subject of
// credentials carries the CVS's roles whatever RoleText says.
func TestEventRolesAreTheRequests(t *testing.T) {
	var got [][]string
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Policy: pol, Observer: func(ev inspect.DecisionEvent) { got = append(got, ev.Roles) }})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := credential.NewAuthority("hr.bank.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrustAuthority(hr); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	cred, err := hr.IssueRole("alice", "Teller", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	spelled := bankReq("alice", "Teller", "HandleCash", "till", "York", "p")
	misspelled := bankReq("alice", "Teller", "HandleCash", "till", "York", "p")
	misspelled.RoleText = []string{"teller"}
	absent := bankReq("alice", "Teller", "HandleCash", "till", "York", "p")
	absent.RoleText = nil
	credentialed := bankReq("", "Auditor", "HandleCash", "till", "York", "p")
	credentialed.Credentials = []credential.Credential{cred}
	for _, req := range []Request{spelled, misspelled, absent, credentialed} {
		if _, err := p.Decide(req); err != nil {
			t.Fatal(err)
		}
	}
	for i, roles := range got {
		if !slices.Equal(roles, []string{"Teller"}) {
			t.Errorf("event %d carries roles %q; want [Teller]", i, roles)
		}
	}
	if len(got) != 4 || &got[0][0] != &spelled.RoleText[0] || &got[1][0] == &misspelled.RoleText[0] ||
		&got[3][0] == &credentialed.RoleText[0] {
		t.Errorf("events carry %q; want the spelled request's RoleText itself, and no other's", got)
	}
}

func TestDecidePipeline(t *testing.T) {
	p := bankPDP(t)

	// Granted: role permits and MSoD has no conflict.
	dec, err := p.Decide(bankReq("alice", "Teller", "HandleCash", "till", "York", "2006"))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed || dec.Phase != PhaseGranted {
		t.Fatalf("decision = %+v", dec)
	}
	if dec.MSoD == nil || dec.MSoD.Recorded != 1 {
		t.Errorf("MSoD detail = %+v", dec.MSoD)
	}

	// RBAC deny: Teller cannot Audit.
	dec, err = p.Decide(bankReq("alice", "Teller", "Audit", "ledger", "York", "2006"))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed || dec.Phase != PhaseRBAC {
		t.Fatalf("decision = %+v", dec)
	}
	// RBAC denial must not touch the retained ADI.
	if p.Store().Len() != 1 {
		t.Errorf("store len = %d after RBAC deny", p.Store().Len())
	}

	// MSoD deny: alice switches to Auditor within the period.
	dec, err = p.Decide(bankReq("alice", "Auditor", "Audit", "ledger", "Leeds", "2006"))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed || dec.Phase != PhaseMSoD {
		t.Fatalf("decision = %+v", dec)
	}
	if !strings.Contains(dec.Reason(), "MMER") {
		t.Errorf("reason = %q", dec.Reason())
	}
}

func TestDecideWithCredentials(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := credential.NewAuthority("hr.bank.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrustAuthority(hr); err != nil {
		t.Fatal(err)
	}

	now := time.Now()
	cred, err := hr.IssueRole("alice", "Teller", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Credentials: []credential.Credential{cred},
		Operation:   "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}
	dec, err := p.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed || dec.User != "alice" {
		t.Fatalf("decision = %+v", dec)
	}

	// A forged credential yields no subject.
	forged := cred
	forged.Holder = "mallory"
	_, err = p.Decide(Request{
		Credentials: []credential.Credential{forged},
		Operation:   "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
	if !errors.Is(err, ErrNoSubject) {
		t.Errorf("forged credential: %v", err)
	}

	// Valid credentials for two users name no one subject either: the
	// caller's mistake, which the shard answers 400.
	bob, err := hr.IssueRole("bob", "Teller", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Decide(Request{
		Credentials: []credential.Credential{cred, bob},
		Operation:   "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
	if !errors.Is(err, ErrNoSubject) || !errors.Is(err, credential.ErrDistinctUsers) {
		t.Errorf("credentials for two users: %v", err)
	}
}

// TestRoutedSubjectIsHeld: a request that resolves to a subject other
// than the one it was routed on fails with ErrMisrouted, as a decision
// and as an advisory, before anything is evaluated: no record, no event.
// One that resolves to its routed subject is decided as without it.
func TestRoutedSubjectIsHeld(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	var events int
	p, err := New(Config{Policy: pol, Observer: func(inspect.DecisionEvent) { events++ }})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := credential.NewAuthority("hr.bank.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrustAuthority(hr); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	cred, err := hr.IssueRole("alice", "Teller", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Credentials: []credential.Credential{cred}, User: "bob", Routed: "bob",
		Operation: "HandleCash", Target: "till", Context: bctx.MustParse("Branch=York, Period=2006")}
	if _, err := p.Decide(req); !errors.Is(err, ErrMisrouted) {
		t.Errorf("steered decision: %v, want ErrMisrouted", err)
	}
	if _, err := p.Advise(req); !errors.Is(err, ErrMisrouted) {
		t.Errorf("steered advisory: %v, want ErrMisrouted", err)
	}
	if n := p.Store().Len(); n != 0 || events != 0 {
		t.Fatalf("%d records and %d events after steered requests, want none", n, events)
	}
	req.User, req.Routed = "", "alice"
	if dec, err := p.Decide(req); err != nil || !dec.Allowed {
		t.Fatalf("routed on its own holder: %+v, %v; want a grant", dec, err)
	}
}

func TestDecideNoSubject(t *testing.T) {
	p := bankPDP(t)
	_, err := p.Decide(Request{Operation: "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006")})
	if !errors.Is(err, ErrNoSubject) {
		t.Errorf("no subject: %v", err)
	}
}

func TestManagementPort(t *testing.T) {
	p := bankPDP(t)
	// Seed history.
	for _, u := range []string{"a", "b", "c"} {
		dec, err := p.Decide(bankReq(u, "Teller", "HandleCash", "till", "York", "2006"))
		if err != nil || !dec.Allowed {
			t.Fatalf("seed %s: %+v %v", u, dec, err)
		}
	}
	if p.Store().Len() != 3 {
		t.Fatalf("seeded %d", p.Store().Len())
	}

	admin := []rbac.RoleName{"RetainedADIController"}

	// Unauthorized role is refused.
	_, err := p.Manage(ManagementRequest{User: "eve", Roles: []rbac.RoleName{"Teller"},
		Operation: OpStats})
	if !errors.Is(err, ErrManagement) {
		t.Errorf("unauthorized manage: %v", err)
	}

	// Stats.
	res, err := p.Manage(ManagementRequest{User: "root", Roles: admin, Operation: OpStats})
	if err != nil || res.Records != 3 {
		t.Fatalf("stats = %+v, %v", res, err)
	}

	// purgeUser.
	res, err = p.Manage(ManagementRequest{User: "root", Roles: admin,
		Operation: OpPurgeUser, TargetUser: "a"})
	if err != nil || res.Removed != 1 || res.Records != 2 {
		t.Fatalf("purgeUser = %+v, %v", res, err)
	}

	// purgeBefore in the future removes the rest.
	res, err = p.Manage(ManagementRequest{User: "root", Roles: admin,
		Operation: OpPurgeBefore, Before: time.Now().Add(time.Hour)})
	if err != nil || res.Removed != 2 || res.Records != 0 {
		t.Fatalf("purgeBefore = %+v, %v", res, err)
	}

	// purgeContext with a pattern.
	dec, err := p.Decide(bankReq("d", "Teller", "HandleCash", "till", "York", "2007"))
	if err != nil || !dec.Allowed {
		t.Fatal(dec, err)
	}
	res, err = p.Manage(ManagementRequest{User: "root", Roles: admin,
		Operation: OpPurgeContext, ContextPattern: "Branch=*, Period=2007"})
	if err != nil || res.Removed != 1 {
		t.Fatalf("purgeContext = %+v, %v", res, err)
	}

	// Validation failures.
	if _, err := p.Manage(ManagementRequest{User: "root", Roles: admin, Operation: OpPurgeUser}); !errors.Is(err, ErrManagement) {
		t.Errorf("purgeUser without target: %v", err)
	}
	if _, err := p.Manage(ManagementRequest{User: "root", Roles: admin, Operation: OpPurgeBefore}); !errors.Is(err, ErrManagement) {
		t.Errorf("purgeBefore without cutoff: %v", err)
	}
	if _, err := p.Manage(ManagementRequest{User: "root", Roles: admin, Operation: "reformat"}); err == nil {
		t.Error("stats permitted unknown operation")
	}
	if _, err := p.Manage(ManagementRequest{User: "root", Roles: admin,
		Operation: OpPurgeContext, ContextPattern: "=bad="}); !errors.Is(err, ErrManagement) {
		t.Errorf("bad pattern: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrConfig) {
		t.Errorf("nil policy: %v", err)
	}
}

func TestPolicyID(t *testing.T) {
	p := bankPDP(t)
	if p.PolicyID() != "bank-1" {
		t.Errorf("PolicyID = %q", p.PolicyID())
	}
}

// TestPurgeBeforeOnDurableStore: purgeBefore is a WAL-logged operation
// of the durable store, so the management port must accept it there —
// removing the old records, publishing the purge event, and keeping
// the removal across a reopen.
func TestPurgeBeforeOnDurableStore(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	dir, secret := t.TempDir(), []byte("purge-before")
	store, err := adi.OpenDurable(dir, secret, true)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
	var events []inspect.DecisionEvent
	p, err := New(Config{Policy: pol, Store: store,
		Clock:    func() time.Time { return now },
		Observer: func(ev inspect.DecisionEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"a", "b", "c"} {
		if u == "c" {
			now = now.Add(48 * time.Hour)
		}
		if dec, err := p.Decide(bankReq(u, "Teller", "HandleCash", "till", "York", "2006")); err != nil || !dec.Allowed {
			t.Fatalf("seed %s: %+v %v", u, dec, err)
		}
	}

	cutoff := now.Add(-24 * time.Hour)
	res, err := p.Manage(ManagementRequest{User: "root", Roles: []rbac.RoleName{"RetainedADIController"},
		Operation: OpPurgeBefore, Before: cutoff})
	if err != nil || res.Removed != 2 || res.Records != 1 {
		t.Fatalf("purgeBefore = %+v, %v", res, err)
	}
	last := events[len(events)-1]
	if last.Effect != inspect.OutcomePurge || last.Operation != string(OpPurgeBefore) ||
		last.Purged != 2 || last.Before == nil || !last.Before.Equal(cutoff) {
		t.Errorf("purge event = %+v", last)
	}

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := adi.OpenDurable(dir, secret, true)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 1 || len(reopened.UserRecords("c", bctx.Universal)) != 1 {
		t.Errorf("after reopen: %d records, c has %d", reopened.Len(), len(reopened.UserRecords("c", bctx.Universal)))
	}
}

// TestRetainedHistoryOwnsItsRoles: the PDP hands the engine the
// caller's Roles slice as it is (Decision.Roles shares it), and the
// record an opening grant retains carries the request's roles, so what
// the retained ADI keeps must be its own copy — the adi.Recorder
// contract. A caller that overwrites its slice after a grant changes
// neither the retained record nor the decisions it backs, in memory or
// in a durable store after a reopen.
func TestRetainedHistoryOwnsItsRoles(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, store adi.Recorder) {
		t.Helper()
		recs := store.UserRecords("alice", bctx.Universal)
		if len(recs) != 1 || len(recs[0].Roles) != 1 || recs[0].Roles[0] != "Teller" {
			t.Fatalf("alice's retained history = %+v, want one record with roles [Teller]", recs)
		}
		p, err := New(Config{Policy: pol, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := p.Decide(bankReq("alice", "Auditor", "Audit", "ledger", "Leeds", "2006"))
		if err != nil || dec.Allowed || dec.Phase != PhaseMSoD {
			t.Errorf("the conflicting Audit: %+v, %v; want an MSoD denial", dec, err)
		}
	}
	grant := func(t *testing.T, store adi.Recorder) {
		t.Helper()
		p, err := New(Config{Policy: pol, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		req := bankReq("alice", "Teller", "HandleCash", "till", "York", "2006")
		if dec, err := p.Decide(req); err != nil || !dec.Allowed {
			t.Fatalf("grant: %+v, %v", dec, err)
		}
		req.Roles[0] = "Auditor"
	}

	t.Run("memory", func(t *testing.T) {
		store := adi.NewStore()
		grant(t, store)
		check(t, store)
	})
	t.Run("durable", func(t *testing.T) {
		dir, secret := t.TempDir(), []byte("owns-roles")
		store, err := adi.OpenDurable(dir, secret, true)
		if err != nil {
			t.Fatal(err)
		}
		grant(t, store)
		check(t, store)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := adi.OpenDurable(dir, secret, true)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		check(t, reopened)
	})
}

// TestApplyPublishesEachOp: every op Apply takes is published as the
// event it stands for, echoing its effect — a release as its purgeUser
// and the activations it kept, an activation only where it activated.
// An import's records are counted in their event, not carried.
func TestApplyPublishesEachOp(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return epoch }
	var events []inspect.DecisionEvent
	owner, err := New(Config{Policy: pol, Clock: clock, Observer: func(ev inspect.DecisionEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(user, period string, age time.Duration) adi.Record {
		return adi.Record{User: rbac.UserID(user), Roles: []rbac.RoleName{"Teller"}, Operation: "HandleCash", Target: "till",
			Context: bctx.MustParse("Branch=York, Period=" + period), Time: epoch.Add(-age)}
	}
	seed := adi.Op{Kind: adi.OpRecord, Records: []adi.Record{
		rec("a", "p1", time.Hour), rec("a", "p2", 0), rec("b", "p2", 0), rec("c", "p3", 48*time.Hour), rec("d", "p4", 0),
	}}
	if _, err := owner.Apply("seed", seed); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Effect != inspect.OutcomeImport || events[0].Recorded != 5 || events[0].Purged != 0 {
		t.Fatalf("record published %+v, want one import event counting 5 records", events)
	}
	events = nil

	p5 := bctx.MustParse("Branch=York, Period=p5")
	cutoff := epoch.Add(-24 * time.Hour)
	eff, err := owner.Apply("test",
		adi.Op{Kind: adi.OpActivate, Bound: p5},
		adi.Op{Kind: adi.OpActivate, Bound: bctx.MustParse("Branch=York, Period=p2")}, // open already
		adi.Op{Kind: adi.OpClose, Bound: bctx.MustParse("Branch=*, Period=p4")},
		adi.Op{Kind: adi.OpRelease, User: "a"}, // p1 kept running, p2 still held by b
		adi.Op{Kind: adi.OpPurgeBefore, Time: cutoff},
		adi.Op{Kind: adi.OpPurgeUser, User: "b"},
	)
	if err != nil || eff.Removed != 5 || eff.Activated != 2 {
		t.Fatalf("Apply = %+v, %v; want 5 records removed, p5 and p1 activated", eff, err)
	}
	// subject is the event's context, or its user for a user purge.
	want := []struct {
		effect, op, subject string
		purged              int
	}{
		{inspect.OutcomeActivate, "", p5.String(), 0},
		{inspect.OutcomePurge, string(OpPurgeContext), "Branch=*, Period=p4", 1},
		{inspect.OutcomePurge, string(OpPurgeUser), "a", 2},
		{inspect.OutcomeActivate, "", "Branch=York, Period=p1", 0},
		{inspect.OutcomePurge, string(OpPurgeBefore), "", 1},
		{inspect.OutcomePurge, string(OpPurgeUser), "b", 1},
	}
	if len(events) != len(want) {
		t.Fatalf("published %d events, want %d: %+v", len(events), len(want), events)
	}
	for i, ev := range events {
		w := want[i]
		subject := ev.Context
		if ev.Operation == string(OpPurgeUser) {
			subject = ev.User
		}
		if ev.Effect != w.effect || ev.Operation != w.op || subject != w.subject || ev.Purged != w.purged || ev.Recorded != 0 || ev.Reason != "test" {
			t.Errorf("event %d = %+v, want %s:%s of %q purging %d", i, ev, w.effect, w.op, w.subject, w.purged)
		}
		if (ev.Operation == string(OpPurgeBefore)) != (ev.Before != nil && ev.Before.Equal(cutoff)) {
			t.Errorf("event %d carries cutoff %v, want %v on the purgeBefore alone", i, ev.Before, cutoff)
		}
	}
	if n := owner.Store().Len(); n != 0 {
		t.Errorf("store keeps %d records, want every seeded one purged", n)
	}
}
