package integration

import (
	"errors"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"msod"
	"msod/internal/adi"
	"msod/internal/cluster"
	"msod/internal/server"
)

// clusterShard is one in-process PDP backend with a durable retained
// ADI: an httptest server the gateway can kill and a WAL directory a
// restart recovers from.
type clusterShard struct {
	id    string
	dir   string
	store *adi.DurableStore
	srv   *httptest.Server
}

var clusterShardKey = []byte("cluster-shard-secret")

// startShard opens (or reopens) the durable store in dir and serves a
// fresh PDP on it. Reopening replays the WAL, so by the time the
// server is listening — and can answer a health probe — the retained
// ADI already holds the full pre-crash history.
func startShard(t *testing.T, pol *msod.Policy, id, dir string) *clusterShard {
	t.Helper()
	store, err := adi.OpenDurable(dir, clusterShardKey, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol, Store: store})
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	return &clusterShard{id: id, dir: dir, store: store, srv: httptest.NewServer(msod.NewServer(p))}
}

// kill simulates a crash: the HTTP listener and the WAL handle go away
// but the directory — the durable state — survives.
func (s *clusterShard) kill() {
	s.srv.Close()
	s.store.Close()
}

// newCluster builds n durable shards behind a gateway and returns the
// gateway's own httptest server plus the shards by ID.
func newCluster(t *testing.T, n int) (*cluster.Gateway, *httptest.Server, map[string]*clusterShard) {
	t.Helper()
	pol, err := msod.ParsePolicy([]byte(voPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	shards := make(map[string]*clusterShard, n)
	topo := make([]cluster.Shard, 0, n)
	for i := 0; i < n; i++ {
		id := []string{"shard-a", "shard-b", "shard-c", "shard-d"}[i]
		s := startShard(t, pol, id, filepath.Join(t.TempDir(), id))
		shards[id] = s
		topo = append(topo, cluster.Shard{ID: id, BaseURL: s.srv.URL})
	}
	gw, err := cluster.New(cluster.Config{Shards: topo, Retries: -1, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.Checker().CheckNow()
	gwSrv := httptest.NewServer(gw)
	t.Cleanup(func() {
		gwSrv.Close()
		gw.Close()
		for _, s := range shards {
			s.srv.Close()
			s.store.Close()
		}
	})
	return gw, gwSrv, shards
}

// TestClusterScenariosAcrossShards replays the paper's Example 1 (bank)
// and Example 2 (tax) scenarios through the gateway against three
// shards. Every per-user MSoD verdict must be identical to the
// single-PDP runs: sharding by user keeps each user's whole retained
// ADI on one shard, so history-dependent denials survive distribution.
func TestClusterScenariosAcrossShards(t *testing.T) {
	gw, gwSrv, shards := newCluster(t, 3)
	c := server.NewClient(gwSrv.URL, nil)

	decide := func(user string, roles []string, op, target, ctx string) server.DecisionResponse {
		t.Helper()
		resp, err := c.Decision(server.DecisionRequest{
			User: user, Roles: roles, Operation: op, Target: target, Context: ctx,
		})
		if err != nil {
			t.Fatalf("%s %s by %s: %v", op, target, user, err)
		}
		return resp
	}

	// --- Example 1: banking MMER across sessions ---
	if r := decide("alice", []string{"Teller"}, "HandleCash", "till", "Branch=York, Period=2006"); !r.Allowed {
		t.Fatalf("teller = %+v", r)
	}
	if r := decide("alice", []string{"Auditor"}, "Audit", "ledger", "Branch=Leeds, Period=2006"); r.Allowed || r.Phase != "msod" {
		t.Fatalf("alice audit should hit MSoD, got %+v", r)
	}
	if r := decide("bob", []string{"Auditor"}, "Audit", "ledger", "Branch=York, Period=2006"); !r.Allowed {
		t.Fatalf("bob audit = %+v", r)
	}
	if r := decide("bob", []string{"Auditor"}, "CommitAudit", "audit", "Branch=York, Period=2006"); !r.Allowed || r.Purged == 0 {
		t.Fatalf("commit = %+v", r)
	}
	// Distribution subtlety, deliberately fail-safe: bob's LastStep
	// purged the 2006 context on HIS shard only. If alice lives on a
	// different shard, her Teller record survives there and she stays
	// denied — the skew can only add denials, never false grants
	// (cluster-wide closure is the administrative purge below, which
	// the gateway fans out to every shard). If the hash colocates
	// alice with bob, the purge removed her record too and the cluster
	// matches single-PDP semantics exactly: allowed.
	aliceShard, _ := gw.ShardFor("alice")
	bobShard, _ := gw.ShardFor("bob")
	colocated := aliceShard == bobShard
	if r := decide("alice", []string{"Auditor"}, "Audit", "ledger", "Branch=York, Period=2006"); r.Allowed != colocated {
		t.Fatalf("post-laststep audit = %+v, want allowed=%v (alice on %s, bob on %s)",
			r, colocated, aliceShard, bobShard)
	}
	if _, err := c.Manage(server.ManagementWireRequest{
		User: "root", Roles: []string{"RetainedADIController"},
		Operation: "purgeContext", ContextPattern: "Branch=York, Period=2006",
	}); err != nil {
		t.Fatal(err)
	}
	if r := decide("alice", []string{"Auditor"}, "Audit", "ledger", "Branch=York, Period=2006"); !r.Allowed {
		t.Fatalf("post-fanout audit = %+v", r)
	}

	// --- Example 2: tax-refund MMEPs, canonical step order ---
	const taxCtx = "TaxOffice=Leeds, taxRefundProcess=p1"
	steps := []struct {
		user, role, op, target string
		ok                     bool
	}{
		{"c1", "Clerk", "prepareCheck", "http://www.myTaxOffice.com/Check", true},
		{"m1", "Manager", "approve/disapproveCheck", "http://www.myTaxOffice.com/Check", true},
		{"m1", "Manager", "approve/disapproveCheck", "http://www.myTaxOffice.com/Check", false},
		{"m2", "Manager", "approve/disapproveCheck", "http://www.myTaxOffice.com/Check", true},
		{"m1", "Manager", "combineResults", "http://secret.location.com/results", false},
		{"m3", "Manager", "combineResults", "http://secret.location.com/results", true},
		{"c1", "Clerk", "confirmCheck", "http://secret.location.com/audit", false},
		{"c2", "Clerk", "confirmCheck", "http://secret.location.com/audit", true},
	}
	for i, st := range steps {
		r := decide(st.user, []string{st.role}, st.op, st.target, taxCtx)
		if r.Allowed != st.ok {
			t.Fatalf("step %d: %s by %s allowed=%v, want %v (%s)", i, st.op, st.user, r.Allowed, st.ok, r.Reason)
		}
	}

	// The last step purged the tax context cluster-wide; only the bank
	// records alice and bob wrote post-commit remain. Management stats
	// fan out and sum across shards.
	res, err := c.Manage(server.ManagementWireRequest{
		User: "root", Roles: []string{"RetainedADIController"}, Operation: "stats",
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range shards {
		total += s.store.Len()
	}
	if res.Records != total {
		t.Errorf("fanout stats = %d, shard sum = %d", res.Records, total)
	}

	// The hard invariant behind fail-closed routing: no user's history
	// is ever split across shards, and each user's records sit on the
	// shard the ring names as owner.
	owners := map[string]string{}
	for id, s := range shards {
		for _, rec := range s.store.All() {
			user := string(rec.User)
			if prev, ok := owners[user]; ok && prev != id {
				t.Fatalf("user %s has retained ADI on both %s and %s", user, prev, id)
			}
			owners[user] = id
			if want, _ := gw.ShardFor(user); want != id {
				t.Errorf("user %s's records on %s but ring owner is %s", user, id, want)
			}
		}
	}
}

// TestClusterShardKillRestartNoFalseGrants is the acceptance check for
// durable-ADI failover: kill a shard mid-scenario, observe fail-closed
// 503s for exactly its users, restart it from the same WAL at a new
// address, and verify the recovered history still denies what it must
// — zero MSoD false grants across the crash.
func TestClusterShardKillRestartNoFalseGrants(t *testing.T) {
	gw, gwSrv, shards := newCluster(t, 3)
	c := server.NewClient(gwSrv.URL, nil)

	decide := func(user string, roles []string, op, target, ctx string) (server.DecisionResponse, error) {
		return c.Decision(server.DecisionRequest{
			User: user, Roles: roles, Operation: op, Target: target, Context: ctx,
		})
	}

	// alice handles cash: her shard records Teller history in its WAL.
	if r, err := decide("alice", []string{"Teller"}, "HandleCash", "till", "Branch=York, Period=2006"); err != nil || !r.Allowed {
		t.Fatalf("teller = %+v, %v", r, err)
	}
	owner, _ := gw.ShardFor("alice")

	// Find a user owned by a DIFFERENT shard to prove the rest of the
	// cluster keeps serving.
	other := ""
	for _, cand := range []string{"bob", "carol", "dave", "erin", "frank", "grace"} {
		if s, _ := gw.ShardFor(cand); s != owner {
			other = cand
			break
		}
	}
	if other == "" {
		t.Fatal("no user found on a different shard")
	}

	// Crash alice's shard. The gateway notices on the next probe round.
	shards[owner].kill()
	gw.Checker().CheckNow()

	// Decisions for alice fail closed — never re-routed to a live shard
	// whose (empty) view of her history would grant her Audit request.
	_, err := decide("alice", []string{"Auditor"}, "Audit", "ledger", "Branch=Leeds, Period=2006")
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("decision on dead shard: err = %v, want 503 APIError", err)
	}
	// Users of live shards are untouched.
	if r, err := decide(other, []string{"Auditor"}, "Audit", "ledger", "Branch=York, Period=2006"); err != nil || !r.Allowed {
		t.Fatalf("%s on live shard = %+v, %v", other, r, err)
	}
	// Management requires the whole cluster: a purge that skipped the
	// dead shard would silently keep records.
	if _, err := c.Manage(server.ManagementWireRequest{
		User: "root", Roles: []string{"RetainedADIController"}, Operation: "stats",
	}); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("management with dead shard: err = %v, want 503", err)
	}

	// Restart the shard from its surviving WAL directory on a NEW
	// address. OpenDurable replays the log before the listener exists,
	// so a reachable shard is by construction a recovered shard.
	pol, err := msod.ParsePolicy([]byte(voPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	reborn := startShard(t, pol, owner, shards[owner].dir)
	t.Cleanup(func() { reborn.srv.Close(); reborn.store.Close() })
	if err := gw.SetShardAddr(owner, reborn.srv.URL); err != nil {
		t.Fatal(err)
	}

	// Until a probe succeeds the shard stays Down: reachable is not
	// enough, the gateway re-admits only on observed health.
	if _, err := decide("alice", []string{"Auditor"}, "Audit", "ledger", "Branch=Leeds, Period=2006"); !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("pre-probe decision: err = %v, want 503", err)
	}
	gw.Checker().CheckNow()

	// The moment of truth: alice's Teller history crossed the crash, so
	// the MMER must still deny her the Auditor step. A grant here would
	// be the false grant the durable ADI exists to prevent.
	r, err := decide("alice", []string{"Auditor"}, "Audit", "ledger", "Branch=Leeds, Period=2006")
	if err != nil {
		t.Fatal(err)
	}
	if r.Allowed {
		t.Fatal("FALSE GRANT: restarted shard lost alice's retained ADI")
	}
	if r.Phase != "msod" {
		t.Errorf("denial phase = %q, want msod", r.Phase)
	}
	// Her permitted operation still works on the reborn shard.
	if r, err := decide("alice", []string{"Teller"}, "HandleCash", "till", "Branch=York, Period=2006"); err != nil || !r.Allowed {
		t.Fatalf("post-restart teller = %+v, %v", r, err)
	}
}
