package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msod"
	"msod/internal/cluster"
	"msod/internal/core"
	"msod/internal/node"
	"msod/internal/server"
	"msod/internal/workload"
)

// replicaShard is one owning shard plus its advisory tier: a durable
// shard as msodd runs it, whose event broker feeds a replica follower
// serving the mirror over HTTP.
type replicaShard struct {
	*clusterShard // owner
	fol           *msod.ReplicaFollower
	rsrv          *httptest.Server // replica
}

// newReplicaCluster builds n owner shards, one event-fed replica each,
// and a gateway configured to read advisory state replica-first. The
// followers are built by hand: their 10 ms backoffs are no flag.
func newReplicaCluster(t *testing.T, n int) (*cluster.Gateway, *httptest.Server, map[string]*replicaShard) {
	t.Helper()
	pol, err := msod.ParsePolicy([]byte(voPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	shards := make(map[string]*replicaShard, n)
	topo := make([]cluster.Shard, 0, n)
	replicas := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		id := []string{"shard-a", "shard-b", "shard-c"}[i]
		owner := startShard(t, id, shardConfig(t, filepath.Join(t.TempDir(), id)))
		fol, err := msod.NewReplicaFollower(msod.ReplicaConfig{
			Owner: owner.srv.URL, Policy: pol,
			ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = fol.Run(ctx) }()
		rsrv := httptest.NewServer(msod.NewReplicaServer(fol))
		t.Cleanup(rsrv.Close)
		shards[id] = &replicaShard{clusterShard: owner, fol: fol, rsrv: rsrv}
		topo = append(topo, cluster.Shard{ID: id, BaseURL: owner.srv.URL})
		replicas[id] = []string{rsrv.URL}
	}
	gw, gwSrv := startGateway(t, node.GatewayConfig{Shards: topo, Retries: -1, FailAfter: 1, Replicas: replicas})
	// Registered last so it runs FIRST at teardown (cleanups are LIFO):
	// the followers' SSE streams must end before the owner servers
	// close, or srv.Close blocks on the live event connections.
	t.Cleanup(cancel)
	return gw, gwSrv, shards
}

// drainLag waits until every replica has applied its owner's full
// event history and can prove freshness.
func drainLag(t *testing.T, shards map[string]*replicaShard) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for _, s := range shards {
		for s.fol.Mirror().AppliedSeq() < s.node.Broker().Seq() || !s.fol.Fresh() {
			if time.Now().After(deadline) {
				t.Fatalf("replica of %s never converged: %+v", s.id, s.fol.Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// rawAdvice posts an advice request straight at the gateway so the
// response headers are visible.
func rawAdvice(t *testing.T, gwURL, user, role, op, target, bc string) (*http.Response, server.DecisionResponse) {
	t.Helper()
	resp, dec, err := postAdvice(gwURL, server.DecisionRequest{
		User: user, Roles: []string{role}, Operation: op, Target: target, Context: bc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp, dec
}

// postAdvice is rawAdvice for any goroutine.
func postAdvice(gwURL string, req server.DecisionRequest) (*http.Response, server.DecisionResponse, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(gwURL+server.AdvicePath, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, server.DecisionResponse{}, err
	}
	defer resp.Body.Close()
	var dec server.DecisionResponse
	err = json.NewDecoder(resp.Body).Decode(&dec)
	return resp, dec, err
}

// TestClusterReplicaTierServesConvergedAdvice is the acceptance test
// for the advisory read-replica tier: once lag drains, replica-served
// advisory answers equal the owners' for every probe (seq-stamped so
// the caller can see which mirror state answered), and at no point —
// syncing, converged, or dead — does the tier produce a false grant.
func TestClusterReplicaTierServesConvergedAdvice(t *testing.T) {
	gw, gwSrv, shards := newReplicaCluster(t, 3)
	c := server.NewClient(gwSrv.URL, nil)

	// Seed the paper's bank scenario through the gateway (decisions
	// route to owners; replicas only ever see the event stream).
	decide := func(user, role, op, target, bc string, want bool) {
		t.Helper()
		r, err := c.Decision(server.DecisionRequest{
			User: user, Roles: []string{role}, Operation: op, Target: target, Context: bc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Allowed != want {
			t.Fatalf("%s by %s: allowed=%v want %v (%s)", op, user, r.Allowed, want, r.Reason)
		}
	}
	decide("alice", "Teller", "HandleCash", "till", "Branch=York, Period=2006", true)
	decide("bob", "Auditor", "Audit", "ledger", "Branch=York, Period=2006", true)
	decide("carol", "Teller", "HandleCash", "till", "Branch=Leeds, Period=2006", true)

	drainLag(t, shards)

	// Every advisory probe: the gateway's (replica-served) answer must
	// equal the owning shard's own advisory verdict.
	probes := []struct {
		user, role, op, target string
	}{
		{"alice", "Auditor", "Audit", "ledger"},   // MMER: must deny
		{"alice", "Teller", "HandleCash", "till"}, // repeat: grant
		{"bob", "Teller", "HandleCash", "till"},   // MMER: must deny
		{"carol", "Auditor", "Audit", "ledger"},   // MMER: must deny
		{"dave", "Auditor", "Audit", "ledger"},    // clean history: grant
	}
	for _, pr := range probes {
		resp, gwDec := rawAdvice(t, gwSrv.URL, pr.user, pr.role, pr.op, pr.target, "Branch=York, Period=2006")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advice %s/%s = %d", pr.user, pr.op, resp.StatusCode)
		}
		if resp.Header.Get(msod.ReplicaSeqHeader) == "" {
			t.Errorf("advice %s/%s not replica-served (no seq stamp) — replicas are converged, owner answered", pr.user, pr.op)
		}
		owner, _ := gw.ShardFor(pr.user)
		oc := server.NewClient(shards[owner].srv.URL, nil)
		ownerDec, err := oc.AdviceCtx(context.Background(), server.DecisionRequest{
			User: pr.user, Roles: []string{pr.role}, Operation: pr.op, Target: pr.target,
			Context: "Branch=York, Period=2006",
		})
		if err != nil {
			t.Fatal(err)
		}
		if gwDec.Allowed != ownerDec.Allowed {
			t.Errorf("DIVERGED: %s %s via replica allowed=%v, owner says %v",
				pr.user, pr.op, gwDec.Allowed, ownerDec.Allowed)
		}
	}

	// User-state reads are replica-served too, and identical in content.
	for _, user := range []string{"alice", "bob", "carol"} {
		resp, err := http.Get(gwSrv.URL + server.StateUsersPath + user)
		if err != nil {
			t.Fatal(err)
		}
		var viaReplica msod.UserStateView
		if err := json.NewDecoder(resp.Body).Decode(&viaReplica); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get(msod.ReplicaSeqHeader) == "" {
			t.Errorf("state read for %s not replica-served", user)
		}
		owner, _ := gw.ShardFor(user)
		ownerState, err := server.NewClient(shards[owner].srv.URL, nil).UserState(user)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaReplica.Records) != len(ownerState.Records) {
			t.Errorf("state for %s: replica %d records, owner %d",
				user, len(viaReplica.Records), len(ownerState.Records))
		}
	}

	// Under concurrent load too: seed a bank history through the
	// gateway, let the mirrors converge, then 8 advisory clients at
	// once. Every answer is replica-served and is the owner's own.
	seed := workload.NewBank(workload.BankConfig{
		Seed: 1700, Users: 256, Branches: 8, Periods: 2, AuditorFraction: 0.3, Zipf: true,
	})
	for _, r := range seed.Stream(1_000) {
		if _, err := c.Decision(wireRequest(r)); err != nil {
			t.Fatal(err)
		}
	}
	drainLag(t, shards)
	var wg sync.WaitGroup
	var denied atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewBank(workload.BankConfig{
				Seed: int64(1710 + w), Users: 256, Branches: 8, Periods: 2, AuditorFraction: 0.3, Zipf: true,
			})
			for _, r := range gen.Stream(50) {
				allowed, err := adviceIsOwners(gw, gwSrv.URL, shards, wireRequest(r))
				if err != nil {
					t.Errorf("client %d: %v", w, err)
					return
				}
				if !allowed {
					denied.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if denied.Load() == 0 {
		t.Error("no advisory answer under load was a denial: the seeded history constrains nothing")
	}
}

// wireRequest is a generated request as a client sends it.
func wireRequest(r core.Request) server.DecisionRequest {
	roles := make([]string, len(r.Roles))
	for i, role := range r.Roles {
		roles[i] = string(role)
	}
	return server.DecisionRequest{
		User: string(r.User), Roles: roles, Operation: string(r.Operation),
		Target: string(r.Target), Context: r.Context.String(),
	}
}

// adviceIsOwners asks the gateway for advice and fails unless a replica
// answered (the seq stamp) with what the owning shard itself advises;
// it returns whether the advice allows the request.
func adviceIsOwners(gw *cluster.Gateway, gwURL string, shards map[string]*replicaShard, req server.DecisionRequest) (bool, error) {
	resp, got, err := postAdvice(gwURL, req)
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(msod.ReplicaSeqHeader) == "" {
		return false, fmt.Errorf("advice for %s: status %d, seq %q; want a replica's 200", req.User, resp.StatusCode, resp.Header.Get(msod.ReplicaSeqHeader))
	}
	owner, _ := gw.ShardFor(req.User)
	want, err := server.NewClient(shards[owner].srv.URL, nil).AdviceCtx(context.Background(), req)
	if err != nil {
		return false, err
	}
	if got.Allowed != want.Allowed || got.Phase != want.Phase || got.Reason != want.Reason {
		return false, fmt.Errorf("DIVERGED: %s %s in %s via replica %v/%s/%q, owner %v/%s/%q", req.User, req.Operation, req.Context,
			got.Allowed, got.Phase, got.Reason, want.Allowed, want.Phase, want.Reason)
	}
	return got.Allowed, nil
}

// TestClusterReplicaNeverFalseGrants drives the tier through its
// degraded modes: a replica answering while its owner races ahead, a
// killed replica, and direct authoritative traffic at a replica. In
// every mode the MMER denial holds and authority stays with owners.
func TestClusterReplicaNeverFalseGrants(t *testing.T) {
	gw, gwSrv, shards := newReplicaCluster(t, 3)
	c := server.NewClient(gwSrv.URL, nil)

	// alice's Teller grant bars her Auditor step. Immediately after the
	// grant — before lag has provably drained — hammer the advisory
	// path: whether a replica or the owner answers each read, none may
	// say "would grant".
	if _, err := c.Decision(server.DecisionRequest{
		User: "alice", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till",
		Context: "Branch=York, Period=2006",
	}); err != nil {
		t.Fatal(err)
	}
	ownerID, _ := gw.ShardFor("alice")
	for i := 0; i < 50; i++ {
		resp, dec := rawAdvice(t, gwSrv.URL, "alice", "Auditor", "Audit", "ledger", "Branch=York, Period=2006")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: advice = %d", i, resp.StatusCode)
		}
		if dec.Allowed {
			t.Fatalf("FALSE GRANT on read %d (replica-served=%v): %+v",
				i, resp.Header.Get(msod.ReplicaSeqHeader) != "", dec)
		}
	}

	// Authoritative traffic aimed straight at a replica is refused 421,
	// and the refusal changes nothing: the owner still decides.
	body, _ := json.Marshal(server.DecisionRequest{
		User: "alice", Roles: []string{"Auditor"}, Operation: "Audit", Target: "ledger",
		Context: "Branch=York, Period=2006",
	})
	resp, err := http.Post(shards[ownerID].rsrv.URL+server.DecisionPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("decision at replica = %d, want 421", resp.StatusCode)
	}

	// Kill alice's replica outright: advisory reads silently fall back
	// to the owner — correct answers, no replica stamps, no errors.
	drainLag(t, shards)
	shards[ownerID].rsrv.Close()
	for i := 0; i < 5; i++ {
		resp, dec := rawAdvice(t, gwSrv.URL, "alice", "Auditor", "Audit", "ledger", "Branch=York, Period=2006")
		if resp.StatusCode != http.StatusOK || dec.Allowed {
			t.Fatalf("post-kill read %d = %d allowed=%v", i, resp.StatusCode, dec.Allowed)
		}
		if resp.Header.Get(msod.ReplicaSeqHeader) != "" {
			t.Errorf("post-kill read %d carries a replica stamp", i)
		}
	}
	// Decisions were never the replica's to make; they still commit.
	r, err := c.Decision(server.DecisionRequest{
		User: "alice", Roles: []string{"Auditor"}, Operation: "Audit", Target: "ledger",
		Context: "Branch=York, Period=2006",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Allowed {
		t.Fatal("FALSE GRANT at the commit point after replica death")
	}
	if r.Phase != "msod" {
		t.Errorf("denial phase = %q, want msod (reason %s)", r.Phase, r.Reason)
	}
}
