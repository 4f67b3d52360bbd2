package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/fault"
	"msod/internal/pdp"
	"msod/internal/rbac"
	"msod/internal/server"
	"msod/internal/workload"
)

// userOn returns the k-th user named prefix+number that the ring gives
// to shard.
func userOn(t *testing.T, gw *Gateway, shard, prefix string, k int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		u := fmt.Sprintf("%s%03d", prefix, i)
		if owner, _ := gw.ShardFor(u); owner == shard {
			if k == 0 {
				return u
			}
			k--
		}
	}
	t.Fatalf("no user %s* on shard %s", prefix, shard)
	return ""
}

func outbox(t *testing.T, gw *Gateway, shard string) *server.Outbox {
	t.Helper()
	c, ok := gw.client(shard)
	if !ok {
		t.Fatalf("no client for shard %s", shard)
	}
	return c.Outbox
}

// retained lists a store's records — user, roles, privilege, context;
// not the time — sorted.
func retained(stores ...*adi.Store) []string {
	var out []string
	for _, s := range stores {
		for _, u := range s.UserIDs() {
			for _, r := range s.UserRecords(u, bctx.Universal) {
				out = append(out, fmt.Sprintf("%s %v %s@%s in %s", r.User, r.Roles, r.Operation, r.Target, r.Context))
			}
		}
	}
	sort.Strings(out)
	return out
}

func wireRequest(r core.Request) server.DecisionRequest {
	roles := make([]string, len(r.Roles))
	for i, role := range r.Roles {
		roles[i] = string(role)
	}
	return server.DecisionRequest{User: string(r.User), Roles: roles,
		Operation: string(r.Operation), Target: string(r.Target), Context: r.Context.String()}
}

func pdpRequest(r core.Request) pdp.Request {
	return pdp.Request{User: r.User, Roles: r.Roles, Operation: r.Operation, Target: r.Target, Context: r.Context}
}

// shadowRequest is a wire request as a shadow PDP takes it.
func shadowRequest(r server.DecisionRequest) pdp.Request {
	roles := make([]rbac.RoleName, len(r.Roles))
	for i, role := range r.Roles {
		roles[i] = rbac.RoleName(role)
	}
	return pdp.Request{User: rbac.UserID(r.User), Roles: roles, Operation: rbac.Operation(r.Operation),
		Target: rbac.Object(r.Target), Context: bctx.MustParse(r.Context)}
}

// Tax-refund steps on one process instance, for the scenario tests.
const (
	checkTarget = "http://www.myTaxOffice.com/Check"
	auditTarget = "http://secret.location.com/audit"
)

func taxStep(user, role, op, target, instance, requestID string) server.DecisionRequest {
	return server.DecisionRequest{User: user, Roles: []string{role}, Operation: op, Target: target,
		Context: "TaxOffice=Leeds, taxRefundProcess=" + instance, RequestID: requestID}
}

func mustDecide(t *testing.T, c *server.Client, req server.DecisionRequest, allowed bool) server.DecisionResponse {
	t.Helper()
	resp, ok := decide(t, c, req, allowed)
	if !ok {
		t.FailNow()
	}
	return resp
}

// decide is mustDecide for a goroutine that is not the test's: it
// reports a failure and says so instead of stopping.
func decide(t *testing.T, c *server.Client, req server.DecisionRequest, allowed bool) (server.DecisionResponse, bool) {
	t.Helper()
	resp, err := c.Decision(req)
	if err != nil {
		t.Errorf("%s by %s in %s: %v", req.Operation, req.User, req.Context, err)
		return resp, false
	}
	if resp.Allowed != allowed {
		t.Errorf("%s by %s in %s: %+v, want allowed=%v", req.Operation, req.User, req.Context, resp, allowed)
		return resp, false
	}
	return resp, true
}

// waitUntil polls cond for up to ten seconds; usable off the test's
// goroutine.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Error("condition not met within 10s")
			return
		}
	}
}

// TestClusterRetainedADIEqualsOnePDP replays internal/workload's bank
// and tax scripts — periods that are committed and used again, every
// process instance name run twice — through three shards and through
// one reference PDP. Every decision matches on the way, and after one
// health-probe round (which carries whatever closes are still queued)
// the shards' retained ADI is, record for record, the reference's:
// the cluster closes an instance everywhere the paper's single PDP
// does, and nowhere else.
func TestClusterRetainedADIEqualsOnePDP(t *testing.T) {
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	ref, err := pdp.New(pdp.Config{Policy: bankTaxPolicy(t), Store: adi.NewStore()})
	if err != nil {
		t.Fatal(err)
	}

	// Three tax processes are open at any time, their steps interleaved
	// with bank traffic; the second pass re-uses the first pass's
	// process names, each of which ended with its LastStep.
	var script []core.Request
	bank := workload.NewBank(workload.BankConfig{Seed: 7, Users: 40, Branches: 3, Periods: 4, AuditorFraction: 0.3, CommitFraction: 0.04})
	for pass := 0; pass < 2; pass++ {
		tax := workload.NewTax(workload.TaxConfig{Seed: 11, Clerks: 12, Managers: 12, Offices: 2})
		for round := 0; round < 20; round++ {
			open := [][]workload.TaxStep{tax.NextProcess(), tax.NextProcess(), tax.NextProcess()}
			for step := 0; step < len(open[0]); step++ {
				for _, process := range open {
					script = append(script, process[step].Request)
					script = append(script, bank.Stream(2)...)
				}
			}
		}
	}

	lastSteps, denials := 0, 0
	for i, req := range script {
		got, err := c.Decision(wireRequest(req))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want, err := ref.Decide(pdpRequest(req))
		if err != nil {
			t.Fatalf("request %d: reference: %v", i, err)
		}
		if got.Allowed != want.Allowed || got.Phase != string(want.Phase) {
			t.Fatalf("request %d (%s by %s in %s): cluster says allowed=%v phase=%s, one PDP says allowed=%v phase=%s (%s)",
				i, req.Operation, req.User, req.Context, got.Allowed, got.Phase, want.Allowed, want.Phase, want.Reason())
		}
		if len(got.Closed) > 0 {
			lastSteps++
		}
		if !got.Allowed {
			denials++
		}
	}
	if lastSteps < 100 || denials == 0 {
		t.Fatalf("the script granted %d last steps and drew %d denials; it is meant to exercise both", lastSteps, denials)
	}

	gw.Checker().CheckNow()
	var stores []*adi.Store
	for _, sh := range shards {
		stores = append(stores, sh.store)
		if n := outbox(t, gw, sh.id).Pending(); n != 0 {
			t.Errorf("shard %s: %d closes still queued after a probe round", sh.id, n)
		}
	}
	got, want := retained(stores...), retained(ref.Store().(*adi.Store))
	if len(want) == 0 {
		t.Fatal("the reference retains nothing at the end; the script is meant to leave instances open")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the shards retain %d records, one PDP %d:\nshards: %q\none PDP: %q", len(got), len(want), got, want)
	}
	if lost := gw.closes.Lost.Load() + gw.closes.Overflowed.Load() + gw.closes.Unsendable.Load(); lost != 0 || gw.closes.Enqueued.Load() != int64(2*lastSteps) {
		t.Fatalf("%d closes queued for %d last steps on 3 shards, %d given up; want %d and 0", gw.closes.Enqueued.Load(), lastSteps, lost, 2*lastSteps)
	}
}

// onePDP runs every step through the cluster and through one reference
// PDP and fails at the first answer they disagree on.
type onePDP struct {
	t   *testing.T
	c   *server.Client
	ref *pdp.PDP
}

func newOnePDP(t *testing.T, c *server.Client) *onePDP {
	ref, err := pdp.New(pdp.Config{Policy: bankTaxPolicy(t), Store: adi.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	return &onePDP{t: t, c: c, ref: ref}
}

func (o *onePDP) decide(req server.DecisionRequest) {
	o.t.Helper()
	want, err := o.ref.Decide(shadowRequest(req))
	if err != nil {
		o.t.Fatal(err)
	}
	mustDecide(o.t, o.c, req, want.Allowed)
}

func (o *onePDP) manage(req server.ManagementWireRequest) {
	o.t.Helper()
	req.User, req.Roles = "root", []string{string(pdp.RetainedADIController)}
	if _, err := o.c.Manage(req); err != nil {
		o.t.Fatal(err)
	}
	mreq := pdp.ManagementRequest{User: "root", Roles: []rbac.RoleName{pdp.RetainedADIController},
		Operation: rbac.Operation(req.Operation), TargetUser: rbac.UserID(req.TargetUser)}
	if req.Before != nil {
		mreq.Before = *req.Before
	}
	if _, err := o.ref.Manage(mreq); err != nil {
		o.t.Fatal(err)
	}
}

// TestClusterPurgeBeforeKeepsRunningInstancesActive: an age purge takes
// the first step of p1 and the activation b was told of, while a still
// holds a newer record of p1 — one PDP still has p1 running. So must
// b: its manager's approval is recorded, and the combine that one PDP
// refuses after it is refused.
func TestClusterPurgeBeforeKeepsRunningInstancesActive(t *testing.T) {
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	o := newOnePDP(t, c)
	clerk, managerA, managerB := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "a", "mgr", 0), userOn(t, gw, "b", "mgr", 0)

	o.decide(taxStep(clerk, "Clerk", "prepareCheck", checkTarget, "p1", ""))
	time.Sleep(2 * time.Millisecond)
	cut := time.Now()
	time.Sleep(2 * time.Millisecond)
	o.decide(taxStep(managerA, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""))
	o.manage(server.ManagementWireRequest{Operation: string(pdp.OpPurgeBefore), Before: &cut})

	o.decide(taxStep(managerB, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""))
	o.decide(taxStep(managerB, "Manager", "combineResults", "http://secret.location.com/results", "p1", ""))
	if got, want := retained(shards[0].store, shards[1].store, shards[2].store), retained(o.ref.Store().(*adi.Store)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the shards retain %q, one PDP %q", got, want)
	}
}

// TestClusterPurgeUserKeepsRunningInstancesActive: a user purge takes
// the first step of p1, a's only record of it (the shard that answers a
// first step is told of no activation: it has the record), while b holds
// its manager's approval — one PDP still has p1 running. So must a.
func TestClusterPurgeUserKeepsRunningInstancesActive(t *testing.T) {
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	o := newOnePDP(t, c)
	clerk, managerA, managerB := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "a", "mgr", 0), userOn(t, gw, "b", "mgr", 0)

	o.decide(taxStep(clerk, "Clerk", "prepareCheck", checkTarget, "p1", ""))
	o.decide(taxStep(managerB, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""))
	o.manage(server.ManagementWireRequest{Operation: string(pdp.OpPurgeUser), TargetUser: clerk})

	o.decide(taxStep(managerA, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""))
	o.decide(taxStep(managerA, "Manager", "combineResults", "http://secret.location.com/results", "p1", ""))
	if got, want := retained(shards[0].store, shards[1].store, shards[2].store), retained(o.ref.Store().(*adi.Store)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the shards retain %q, one PDP %q", got, want)
	}
}

// TestClusterJoinReleaseKeepsDonorInstancesActive: a join moves a
// clerk's history — the first step of a running process, the donor's
// only record of it — to the joiner, and the release purges it from
// the donor. The process is still running (on the joiner), so the donor
// must keep recording its own manager's steps in it: one PDP refuses the
// combine after the approval.
func TestClusterJoinReleaseKeepsDonorInstancesActive(t *testing.T) {
	gw, _, c := newGateway(t, Config{}, nil, urls(newShards(t, 2, handoff))...)
	o := newOnePDP(t, c)
	var clerks []string
	for i := 0; i < 40; i++ {
		clerks = append(clerks, userOn(t, gw, "a", "clerk", i))
		o.decide(taxStep(clerks[i], "Clerk", "prepareCheck", checkTarget, fmt.Sprintf("p%d", i), ""))
	}
	join(t, gw, "c")
	manager := userOn(t, gw, "a", "mgr", 0)
	for i, clerk := range clerks {
		if owner, _ := gw.ShardFor(clerk); owner == "c" {
			o.decide(taxStep(manager, "Manager", "approve/disapproveCheck", checkTarget, fmt.Sprintf("p%d", i), ""))
			o.decide(taxStep(manager, "Manager", "combineResults", "http://secret.location.com/results", fmt.Sprintf("p%d", i), ""))
			return
		}
	}
	t.Fatal("the join moved no clerk; the test needs a released first step")
}

// answerLoser forwards every request and, when armed, loses the answer
// of the next POST to path: the shard has committed, the gateway sees a
// transport failure.
type answerLoser struct {
	mu   sync.Mutex
	path string
}

func (l *answerLoser) arm(path string) {
	l.mu.Lock()
	l.path = path
	l.mu.Unlock()
}

func (l *answerLoser) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	l.mu.Lock()
	lose := err == nil && l.path != "" && r.URL.Path == l.path
	if lose {
		l.path = ""
	}
	l.mu.Unlock()
	if lose {
		resp.Body.Close()
		return nil, errors.New("answerLoser: connection reset after the request was served")
	}
	return resp, err
}

// TestClusterCloseAppliedOncePerLastStep: the close of one LastStep
// reaches a peer three times — carried by a decision, queued again when
// the gateway's retry is answered by a replay (the first answer was
// lost after the shard committed), and queued a third time when the PEP
// retries under the same requestID — and in between a user of that
// peer opens the instance again. The peer closes it once: what was
// recorded after the re-opening survives the late copies.
func TestClusterCloseAppliedOncePerLastStep(t *testing.T) {
	net := &answerLoser{}
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{RetryBackoff: 1}, net, urls(shards)...)
	opener, closer := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "a", "clerk", 1)
	reopener, manager := userOn(t, gw, "b", "clerk", 0), userOn(t, gw, "b", "mgr", 0)
	b := shards[1]

	mustDecide(t, c, taxStep(opener, "Clerk", "prepareCheck", checkTarget, "p1", ""), true)
	mustDecide(t, c, taxStep(manager, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""), true)

	// The LastStep: committed on a, its first answer lost, the retry
	// answered by the replay. The close is queued once, from the answer
	// that was forwarded.
	last := taxStep(closer, "Clerk", "confirmCheck", auditTarget, "p1", "last-step-of-p1")
	net.arm(server.DecisionPath)
	if resp := mustDecide(t, c, last, true); len(resp.Closed) != 1 {
		t.Fatalf("last step = %+v, want one closed instance", resp)
	}
	if gw.metrics.retries.Load() != 1 || gw.closes.Enqueued.Load() != 2 || outbox(t, gw, "b").Pending() != 1 {
		t.Fatalf("after the last step: %d retries, %d closes queued, %d pending for b; want 1, 2, 1",
			gw.metrics.retries.Load(), gw.closes.Enqueued.Load(), outbox(t, gw, "b").Pending())
	}

	// b's own user opens the instance again: the request carries the
	// close, so it is the FirstStep of a new instance, not a second
	// prepareCheck in the old one.
	if resp := mustDecide(t, c, taxStep(reopener, "Clerk", "prepareCheck", checkTarget, "p1", ""), true); len(resp.Activated) != 1 {
		t.Fatalf("re-opening = %+v, want the instance started again", resp)
	}
	mustDecide(t, c, taxStep(manager, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""), true)
	if got := retained(b.store); len(got) != 2 {
		t.Fatalf("b retains %q, want the re-opened instance's two records", got)
	}

	// The PEP never saw the answer and asks again under the same ID; the
	// replay names the closed instance again, and the probe round
	// delivers that late copy to b and c.
	if resp := mustDecide(t, c, last, true); len(resp.Closed) != 1 {
		t.Fatalf("replayed last step = %+v, want the same answer", resp)
	}
	if gw.closes.Enqueued.Load() != 4 {
		t.Fatalf("%d closes queued after the PEP's retry, want 4", gw.closes.Enqueued.Load())
	}
	gw.Checker().CheckNow()
	if n := outbox(t, gw, "b").Pending(); n != 0 {
		t.Fatalf("%d closes still pending for b after a probe round", n)
	}
	if got := retained(b.store); len(got) != 2 {
		t.Fatalf("b retains %q after the late copy of the close, want the re-opened instance's two records", got)
	}
	// One PDP would refuse the manager a second approval in the running
	// instance; a b that lost its records would grant it.
	mustDecide(t, c, taxStep(manager, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""), false)
}

// TestClusterWithheldAnswerQueuesNoClose: the shard resolved the
// credentials to a user another shard owns, so the answer — a granted
// LastStep — is withheld with a 502. The stray shard has purged its own
// slice; that must not spread: nothing is queued for the other shards.
func TestClusterWithheldAnswerQueuesNoClose(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t), newRecordingShard(t), newRecordingShard(t)}
	gw, _, c := newGateway(t, Config{Retries: -1}, nil, shards[0].ts.URL, shards[1].ts.URL, shards[2].ts.URL)
	owner, _ := gw.ShardFor("alice")
	var elsewhere string
	for _, id := range gw.shards(tracked) {
		if id != owner {
			elsewhere = userOn(t, gw, id, "user", 0)
		}
	}
	lastStep := func(user string) func(string, int) (int, string, bool) {
		return func(string, int) (int, string, bool) {
			return http.StatusOK, `{"allowed":true,"phase":"granted","user":"` + user + `","closed":["Branch=*, Period=2006"]}`, false
		}
	}
	for _, s := range shards {
		s.script(lastStep(elsewhere))
	}
	_, err := c.Decision(server.DecisionRequest{User: "alice", Operation: "CommitAudit", Target: "audit", Context: "Branch=York, Period=2006"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("misrouted last step = %v, want the answer withheld with a 502", err)
	}
	for _, id := range gw.shards(tracked) {
		if n := outbox(t, gw, id).Pending(); n != 0 {
			t.Errorf("shard %s: %d closes queued from a withheld answer", id, n)
		}
	}
	if n := gw.closes.Enqueued.Load(); n != 0 || gw.metrics.misrouted.Load() != 1 {
		t.Fatalf("%d closes queued, %d answers withheld; want 0 and 1", n, gw.metrics.misrouted.Load())
	}

	// The same answer for the right user is forwarded, and queues.
	for _, s := range shards {
		s.script(lastStep("alice"))
	}
	if _, err := c.Decision(server.DecisionRequest{User: "alice", Operation: "CommitAudit", Target: "audit", Context: "Branch=York, Period=2006"}); err != nil {
		t.Fatal(err)
	}
	if n := gw.closes.Enqueued.Load(); n != 2 {
		t.Fatalf("%d closes queued from a forwarded answer on 3 shards, want 2", n)
	}
}

// falseGrants runs the probes through the cluster (as advisories, so
// nothing changes) and through the shadow PDP and reports every request
// the cluster would grant and the shadow would not.
func falseGrants(t *testing.T, c *server.Client, shadow *pdp.PDP, probes []server.DecisionRequest) []string {
	t.Helper()
	var out []string
	for _, probe := range probes {
		got, err := c.Advice(probe)
		if err != nil {
			t.Fatalf("probe %+v: %v", probe, err)
		}
		want, err := shadow.Advise(shadowRequest(probe))
		if err != nil {
			t.Fatalf("probe %+v: shadow: %v", probe, err)
		}
		if got.Allowed && !want.Allowed {
			out = append(out, fmt.Sprintf("%s by %s in %s (%s)", probe.Operation, probe.User, probe.Context, want.Reason()))
		}
	}
	return out
}

// TestClusterChaoticTransportDropsCarriedCloses: a close is given up,
// never sent again, in the two ways it can be — the request carrying it
// fails in transport, or the shard answers nothing for so long that its
// outbox fills — and each is counted. Either way the shard is left with
// records of an instance that has ended, which can refuse what one PDP
// would grant and never the reverse: zero false grants against a shadow
// PDP that saw every acknowledged decision.
func TestClusterChaoticTransportDropsCarriedCloses(t *testing.T) {
	rt := fault.NewRoundTripper(nil, 1)
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{Retries: -1, FailAfter: 1000}, rt, urls(shards)...)
	shadow, err := pdp.New(pdp.Config{Policy: bankTaxPolicy(t), Store: adi.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	acked := func(req server.DecisionRequest, allowed bool) {
		t.Helper()
		mustDecide(t, c, req, allowed)
		if _, err := shadow.Decide(shadowRequest(req)); err != nil {
			t.Fatal(err)
		}
	}
	bankStep := func(user, role, op, target, period string) server.DecisionRequest {
		return server.DecisionRequest{User: user, Roles: []string{role}, Operation: op, Target: target, Context: "Branch=York, Period=" + period}
	}
	tellerA, auditorA := userOn(t, gw, "a", "user", 0), userOn(t, gw, "a", "user", 1)
	tellerB := userOn(t, gw, "b", "user", 0)
	b := shards[1]

	// 1. The carrying request dies. b's teller worked in period p0; a's
	// auditor commits it; the close is on the next request to b, which is
	// reset before it leaves.
	acked(bankStep(tellerB, "Teller", "HandleCash", "till", "p0"), true)
	acked(bankStep(tellerA, "Teller", "HandleCash", "till", "p0"), true)
	acked(bankStep(auditorA, "Auditor", "CommitAudit", "audit", "p0"), true)
	if n := outbox(t, gw, "b").Pending(); n != 1 {
		t.Fatalf("%d closes pending for b after the commit, want 1", n)
	}
	rt.InjectAt(rt.Requests()+1, fault.Trip{Kind: fault.TripReset})
	if _, err := c.Decision(bankStep(tellerB, "Teller", "HandleCash", "till", "p1")); err == nil {
		t.Fatal("the reset request was answered")
	}
	if n, lost := outbox(t, gw, "b").Pending(), gw.closes.Lost.Load(); n != 0 || lost != 1 {
		t.Fatalf("after the reset: %d pending for b, %d counted lost; want 0 and 1", n, lost)
	}
	// Nothing is re-sent: b serves its next requests with p0 still open
	// there, and refuses its teller the Auditor role one PDP would allow.
	gw.Checker().CheckNow()
	if got := retained(b.store); len(got) != 1 {
		t.Fatalf("b retains %q, want the p0 record the lost close left behind", got)
	}
	if resp, err := c.Advice(bankStep(tellerB, "Auditor", "Audit", "ledger", "p0")); err != nil || resp.Allowed {
		t.Fatalf("b's teller as auditor in p0 = %+v, %v; want the leftover record to refuse it", resp, err)
	}

	// 2. b answers nothing. The checker has it Down, so it is sent no
	// decision, and nobody probes: its outbox fills, then loses its
	// oldest close for every new one.
	for gw.Checker().Up("b") {
		gw.Checker().ReportFailure("b", errors.New("test: b answers nothing"))
	}
	// The PEP's requestIDs are long ones, so that a few hundred closes
	// fill the outbox instead of a few thousand. c is Up but idle — none
	// of these users is its — so its outbox fills too.
	const commits = 300
	for i := 0; i < commits; i++ {
		period := fmt.Sprintf("q%d", i)
		acked(bankStep(tellerA, "Teller", "HandleCash", "till", period), true)
		commit := bankStep(auditorA, "Auditor", "CommitAudit", "audit", period)
		commit.RequestID = fmt.Sprintf("%0900d", i)
		acked(commit, true)
	}
	pending, overflowed := outbox(t, gw, "b").Pending(), gw.closes.Overflowed.Load()
	if pending == 0 || pending >= commits || overflowed != int64(2*(commits-pending)) || outbox(t, gw, "c").Pending() != pending {
		t.Fatalf("b's outbox holds %d of %d closes (c's %d), %d counted as overflow; want both full and the rest counted",
			pending, commits, outbox(t, gw, "c").Pending(), overflowed)
	}
	gw.Checker().CheckNow() // b answers again: Up, and told what is left
	if n := outbox(t, gw, "b").Pending(); n != 0 || !gw.Checker().Up("b") {
		t.Fatalf("after b's recovery: %d pending, up=%v", n, gw.Checker().Up("b"))
	}

	var probes []server.DecisionRequest
	for _, u := range []string{tellerA, auditorA, tellerB} {
		for _, period := range []string{"p0", "p1", "q0", "q299"} {
			probes = append(probes, bankStep(u, "Teller", "HandleCash", "till", period), bankStep(u, "Auditor", "Audit", "ledger", period))
		}
	}
	if bad := falseGrants(t, c, shadow, probes); len(bad) != 0 {
		t.Fatalf("FALSE GRANTS after dropped closes: %q", bad)
	}
}

// hooked calls before for every request the gateway sends a shard, then
// forwards it, then calls after; either may be nil. A hook runs on the
// gateway's goroutine, so what it does happens exactly there in the
// gateway's sequence of requests.
type hooked struct {
	mu            sync.Mutex
	before, after func(*http.Request)
}

func (h *hooked) set(before, after func(*http.Request)) {
	h.mu.Lock()
	h.before, h.after = before, after
	h.mu.Unlock()
}

func (h *hooked) RoundTrip(r *http.Request) (*http.Response, error) {
	h.mu.Lock()
	before, after := h.before, h.after
	h.mu.Unlock()
	if before != nil {
		before(r)
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if after != nil {
		after(r)
	}
	return resp, err
}

// join admits a fresh real shard under id and waits for the handoff.
func join(t *testing.T, gw *Gateway, id string) *testShard {
	t.Helper()
	sh := newShard(t, id, handoff)
	if code := member(t, gw, ClusterJoinPath, id, sh.ts.URL); code != http.StatusAccepted {
		t.Fatalf("join status %d", code)
	}
	if last := waitHandoff(t, gw); last.Phase != PhaseDone {
		t.Fatalf("handoff ended %s: %s", last.Phase, last.Error)
	}
	return sh
}

// openProcess runs the FirstStep of a tax process and one approval by
// each of the given managers, leaving the instance open.
func openProcess(t *testing.T, c *server.Client, opener string, managers []string, instance string) {
	t.Helper()
	mustDecide(t, c, taxStep(opener, "Clerk", "prepareCheck", checkTarget, instance, ""), true)
	for _, m := range managers {
		mustDecide(t, c, taxStep(m, "Manager", "approve/disapproveCheck", checkTarget, instance, ""), true)
	}
}

// TestClusterJoinCarriesCloses: the shards a membership change touches
// are told of a close like any other. A shard admitted but not yet in
// the ring is queued for (it will hold history before it serves a
// decision) and a shard that has left is not; and a donor whose export
// request carries a close applies it before it takes the export, so the
// joiner is not handed the records of an instance that has ended.
func TestClusterJoinCarriesCloses(t *testing.T) {
	net := &hooked{}
	shards := newShards(t, 2, handoff)
	gw, _, c := newGateway(t, Config{}, net, urls(shards)...)
	a, b := shards[0], shards[1]
	opener, closer := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "a", "clerk", 1)
	var managers []string
	for i := 0; i < 24; i++ {
		managers = append(managers, fmt.Sprintf("mgr%03d", i))
	}
	openProcess(t, c, opener, managers, "p1")
	openProcess(t, c, opener, managers, "p2")
	before := retained(b.store)
	if len(before) == 0 {
		t.Fatal("b holds no manager's records; the test needs a donor with history")
	}

	// The LastStep of p1 is granted between the plan's user list and the
	// export: b's export request is the first thing it is sent
	// afterwards, and carries the close.
	var once sync.Once
	net.set(nil, func(r *http.Request) {
		if r.URL.Path == server.HandoffUsersPath && r.URL.Host == b.ts.Listener.Addr().String() {
			once.Do(func() {
				decide(t, c, taxStep(closer, "Clerk", "confirmCheck", auditTarget, "p1", ""), true)
				if n := outbox(t, gw, "b").Pending(); n != 1 {
					t.Errorf("%d closes pending for b after the last step, want 1", n)
				}
				// The joiner is syncing: tracked, serving, not in the ring.
				if n := outbox(t, gw, "c").Pending(); n != 1 {
					t.Errorf("%d closes pending for the joining shard, want 1", n)
				}
			})
		}
	})
	joiner := join(t, gw, "c")
	net.set(nil, nil)

	moved := 0
	for _, m := range managers {
		if owner, _ := gw.ShardFor(m); owner == "c" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the join moved no manager; the test needs an export")
	}
	for _, sh := range []*testShard{a, b, joiner} {
		for _, rec := range retained(sh.store) {
			if want := "taxRefundProcess=p2"; rec[len(rec)-len(want):] != want {
				t.Errorf("shard %s retains %q: p1 ended before the export", sh.id, rec)
			}
		}
	}
	if got := len(retained(a.store, b.store, joiner.store)); got != 1+len(managers) {
		t.Fatalf("the cluster retains %d records of p2, want %d: the join lost or doubled history", got, 1+len(managers))
	}

	// A shard that has left the ring is owed nothing.
	gw.setShardState("c", ShardGone)
	mustDecide(t, c, taxStep(closer, "Clerk", "confirmCheck", auditTarget, "p2", ""), true)
	if n := outbox(t, gw, "c").Pending(); n != 0 {
		t.Fatalf("%d closes queued for a shard that is gone", n)
	}
}

// TestClusterJoinCopyExcludesCloses: a LastStep granted while a handoff
// copy is between its export and its import waits for the import. If
// its close were queued in between, the joiner would apply it before
// the import and then be handed the closed instance's records.
func TestClusterJoinCopyExcludesCloses(t *testing.T) {
	net := &hooked{}
	shards := newShards(t, 2, handoff)
	gw, _, c := newGateway(t, Config{}, net, urls(shards)...)
	a, b := shards[0], shards[1]
	opener, closer := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "a", "clerk", 1)
	var managers []string
	for i := 0; i < 24; i++ {
		managers = append(managers, fmt.Sprintf("mgr%03d", i))
	}
	openProcess(t, c, opener, managers, "p1")

	// b's export has been taken and the import to c is not yet on its
	// way when the LastStep commits on a and its answer reaches the
	// gateway. (The pause gives an unguarded gateway time to queue the
	// close before the import picks it up; with the guard it only waits.)
	acked := make(chan struct{})
	var once sync.Once
	net.set(nil, func(r *http.Request) {
		if r.URL.Path == server.ReplicaSnapshotPath && r.URL.Host == b.ts.Listener.Addr().String() {
			once.Do(func() {
				go func() {
					defer close(acked)
					decide(t, c, taxStep(closer, "Clerk", "confirmCheck", auditTarget, "p1", ""), true)
				}()
				waitUntil(t, func() bool { return len(retained(a.store)) == 0 })
				time.Sleep(50 * time.Millisecond)
			})
		}
	})
	joiner := join(t, gw, "c")
	<-acked
	net.set(nil, nil)

	gw.Checker().CheckNow()
	if got := retained(a.store, b.store, joiner.store); len(got) != 0 {
		t.Fatalf("p1 has ended, yet the cluster retains %q", got)
	}
}

// TestJoinSeedsOnlyOpenInstances: the join handoff activates on the
// joiner every instance with retained history on an authoritative shard.
// While a LastStep closed an instance on one shard only, that was every
// instance there had ever been; now it is the ones still open.
func TestJoinSeedsOnlyOpenInstances(t *testing.T) {
	gw, _, c := newGateway(t, Config{}, nil, urls(newShards(t, 2, handoff))...)
	opener, closer := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "b", "clerk", 0)
	managers := []string{userOn(t, gw, "a", "mgr", 0), userOn(t, gw, "b", "mgr", 0)}
	const ended, open = 12, 3
	var want []string
	for i := 0; i < ended+open; i++ {
		instance := fmt.Sprintf("p%02d", i)
		openProcess(t, c, opener, managers, instance)
		if i < ended {
			mustDecide(t, c, taxStep(closer, "Clerk", "confirmCheck", auditTarget, instance, ""), true)
		} else {
			want = append(want, "TaxOffice=Leeds, taxRefundProcess="+instance)
		}
	}
	joiner := join(t, gw, "c")
	got, err := server.NewClient(joiner.ts.URL, nil).ActiveContexts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the joiner was told %d instances are running: %q\nwant the %d still open: %q", len(got), got, open, want)
	}
}

// TestClusterLostCloseStillReopensEverywhere: shard b misses the close
// of p1 (the request carrying it dies) and keeps p1's records. When one
// of b's own users then takes p1's first step again, b — to which p1
// never ended — records it as one more step of a running instance, and
// still reports the activation: a and c closed p1, and must start
// recording their users' steps in the new instance. Without that, a's
// manager approves and then combines in it, which one PDP refuses.
func TestClusterLostCloseStillReopensEverywhere(t *testing.T) {
	rt := fault.NewRoundTripper(nil, 1)
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{Retries: -1, FailAfter: 1000}, rt, urls(shards)...)
	opener, closer := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "a", "clerk", 1)
	managerA, managerB, reopener := userOn(t, gw, "a", "mgr", 0), userOn(t, gw, "b", "mgr", 0), userOn(t, gw, "b", "clerk", 0)

	openProcess(t, c, opener, []string{managerB}, "p1")
	mustDecide(t, c, taxStep(closer, "Clerk", "confirmCheck", auditTarget, "p1", ""), true)
	rt.InjectAt(rt.Requests()+1, fault.Trip{Kind: fault.TripReset})
	if _, err := c.Decision(taxStep(managerB, "Manager", "approve/disapproveCheck", checkTarget, "p1", "")); err == nil {
		t.Fatal("the reset request was answered")
	}
	if lost := gw.closes.Lost.Load(); lost != 1 || len(retained(shards[1].store)) != 1 {
		t.Fatalf("%d closes lost, b retains %q; want b to have missed the close", lost, retained(shards[1].store))
	}

	if resp := mustDecide(t, c, taxStep(reopener, "Clerk", "prepareCheck", checkTarget, "p1", ""), true); len(resp.Activated) != 1 {
		t.Fatalf("first step on the shard that missed the close = %+v, want the activation reported", resp)
	}
	if resp := mustDecide(t, c, taxStep(managerA, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""), true); resp.Recorded == 0 {
		t.Fatalf("a's manager approves in the re-opened instance unrecorded: %+v", resp)
	}
	mustDecide(t, c, taxStep(managerA, "Manager", "combineResults", "http://secret.location.com/results", "p1", ""), false)
}
