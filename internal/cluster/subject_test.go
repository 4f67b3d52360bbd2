package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"msod/internal/credential"
	"msod/internal/rbac"
	"msod/internal/server"
)

// bankSOA is the one authority every real test shard trusts.
var bankSOA = func() *credential.Authority {
	soa, err := credential.NewAuthority("bank.example")
	if err != nil {
		panic(err)
	}
	return soa
}()

// roleCredential is bankSOA's credential giving holder role for an hour.
func roleCredential(t *testing.T, holder string, role rbac.RoleName) credential.Credential {
	t.Helper()
	now := time.Now()
	c, err := bankSOA.IssueRole(holder, role, now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterSteeredLastStepIsRefused: alice and bob each handle cash
// as Teller in one period, on shards of their own. A request that names
// bob as its user but carries alice's Auditor credential for the
// period's LastStep is routed to bob's shard, whose CVS resolves alice.
// One PDP denies it (alice was Teller), and later denies bob's Auditor
// request too. The cluster must not grant alice's audit against none of
// her history, purge bob's Teller record with it, and then grant bob.
func TestClusterSteeredLastStepIsRefused(t *testing.T) {
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{Retries: -1}, nil, urls(shards)...)
	aliceShard, _ := gw.ShardFor("alice")
	var bob string
	var bobs *testShard
	for _, s := range shards {
		if s.id != aliceShard {
			bob, bobs = userOn(t, gw, s.id, "bob", 0), s
			break
		}
	}
	const period = "Branch=York, Period=2006"
	teller := func(user string) server.DecisionRequest {
		return server.DecisionRequest{User: user, Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: period}
	}
	mustDecide(t, c, teller("alice"), true)
	mustDecide(t, c, teller(bob), true)

	_, err := c.Decision(server.DecisionRequest{User: bob,
		Credentials: []credential.Credential{roleCredential(t, "alice", "Auditor")},
		Operation:   "CommitAudit", Target: "audit", Context: period})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusMisdirectedRequest {
		t.Errorf("the steered LastStep = %v, want a 421", err)
	}
	if got := retained(bobs.store); len(got) != 1 {
		t.Errorf("bob's shard retains %q after the steered LastStep, want bob's Teller record", got)
	}
	mustDecide(t, c, server.DecisionRequest{User: bob, Roles: []string{"Auditor"}, Operation: "Audit", Target: "ledger", Context: period}, false)
}

// TestClusterSteeredRequestsCommitNothing: a request naming bob as its
// user and carrying alice's credential is refused with a 421 by bob's
// shard before anything is evaluated, whatever it would have done there
// — a grant that records, a FirstStep that starts an instance, a
// LastStep that purges one, an advisory — and leaves that shard's
// retained ADI as it was and nothing queued for the others. Every shard
// refuses it, whether or not it is run -handoff.
func TestClusterSteeredRequestsCommitNothing(t *testing.T) {
	for _, shape := range []struct {
		name string
		spec shardSpec
	}{{"handoff", handoff}, {"plain", shardSpec{}}} {
		t.Run(shape.name, func(t *testing.T) {
			steeredCommitsNothing(t, shape.spec)
		})
	}
}

func steeredCommitsNothing(t *testing.T, spec shardSpec) {
	shards := newShards(t, 3, spec)
	gw, _, c := newGateway(t, Config{Retries: -1}, nil, urls(shards)...)
	aliceShard, _ := gw.ShardFor("alice")
	var bob string
	var bobs *testShard
	for _, s := range shards {
		if s.id != aliceShard {
			bob, bobs = userOn(t, gw, s.id, "bob", 0), s
			break
		}
	}
	const period = "Branch=York, Period=2006"
	mustDecide(t, c, server.DecisionRequest{User: bob, Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: period}, true)
	mustDecide(t, c, taxStep(bob, "Manager", "approve/disapproveCheck", checkTarget, "p0", ""), true)
	before := retained(bobs.store)
	queued := gw.closes.Enqueued.Load()

	steered := func(role rbac.RoleName, op, target, ctx string) server.DecisionRequest {
		return server.DecisionRequest{User: bob, Credentials: []credential.Credential{roleCredential(t, "alice", role)},
			Operation: op, Target: target, Context: ctx}
	}
	for _, tc := range []struct {
		name   string
		advice bool
		req    server.DecisionRequest
	}{
		{"grant", false, steered("Teller", "HandleCash", "till", "Branch=Leeds, Period=2007")},
		{"FirstStep", false, steered("Clerk", "prepareCheck", checkTarget, "TaxOffice=Leeds, taxRefundProcess=p1")},
		{"LastStep", false, steered("Auditor", "CommitAudit", "audit", period)},
		{"advisory", true, steered("Auditor", "Audit", "ledger", period)},
	} {
		send := c.Decision
		if tc.advice {
			send = c.Advice
		}
		_, err := send(tc.req)
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusMisdirectedRequest {
			t.Errorf("%s: %v, want a 421", tc.name, err)
		}
		if got := retained(bobs.store); !slices.Equal(got, before) {
			t.Errorf("%s: bob's shard retains %q, want %q", tc.name, got, before)
		}
	}
	if n := gw.closes.Enqueued.Load(); n != queued {
		t.Errorf("%d opens and closes queued by steered requests, want none", n-queued)
	}
	if n := gw.metrics.misrouted.Load(); n != 0 {
		t.Errorf("%d answers withheld as misrouted, want none: the shard refuses first", n)
	}
}

// TestClusterSteeredAnswerIsBounded: the 421 for a request whose user
// is 300,000 '<' and whose credential is alice's does not echo the
// user: it reaches the PEP through the gateway under 1 KB, naming the
// subject to resend under.
func TestClusterSteeredAnswerIsBounded(t *testing.T) {
	gw, _, _ := newGateway(t, Config{Retries: -1}, nil, urls(newShards(t, 3, handoff))...)
	cred, err := json.Marshal(roleCredential(t, "alice", "Teller"))
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("<", 300_000)
	body := `{"user":"` + huge + `","credentials":[` + string(cred) + `],"operation":"HandleCash","target":"till","context":"Branch=York, Period=2006"}`
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, httptest.NewRequest(http.MethodPost, server.DecisionPath, strings.NewReader(body)))
	if w.Code != http.StatusMisdirectedRequest || w.Body.Len() >= 1<<10 || !strings.Contains(w.Body.String(), `resolves to \"alice\"`) {
		t.Fatalf("the steered huge-user request answered %d in %d bytes: %.300s; want a 421 under 1 KB naming alice", w.Code, w.Body.Len(), w.Body)
	}
}
