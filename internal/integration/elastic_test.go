package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/cluster"
	"msod/internal/node"
	"msod/internal/server"
)

// startElasticShard is `msodd -handoff` over a durable ADI in dir: the
// handoff surface live resharding needs, beside the event broker every
// shard runs.
func startElasticShard(t *testing.T, id, dir string) *clusterShard {
	t.Helper()
	cfg := shardConfig(t, dir)
	cfg.Handoff = true
	return startShard(t, id, cfg)
}

// newElasticCluster builds n handoff-capable durable shards behind a
// gateway.
func newElasticCluster(t *testing.T, n int) (*cluster.Gateway, *httptest.Server, map[string]*clusterShard) {
	t.Helper()
	shards := make(map[string]*clusterShard, n)
	topo := make([]cluster.Shard, 0, n)
	for i := 0; i < n; i++ {
		id := []string{"shard-a", "shard-b", "shard-c", "shard-d"}[i]
		s := startElasticShard(t, id, filepath.Join(t.TempDir(), id))
		shards[id] = s
		topo = append(topo, cluster.Shard{ID: id, BaseURL: s.srv.URL})
	}
	gw, gwSrv := startGateway(t, node.GatewayConfig{Shards: topo, Retries: -1, FailAfter: 1})
	return gw, gwSrv, shards
}

// changeMembership POSTs one join/drain and waits the async handoff
// out through the public status endpoint, exactly as msodctl -wait
// does. Returns the finished handoff.
func changeMembership(t *testing.T, gwURL, path string, req cluster.ClusterMemberRequest) *cluster.HandoffStatus {
	t.Helper()
	payload, _ := json.Marshal(req)
	resp, err := http.Post(gwURL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var change cluster.ClusterChangeResponse
	if err := json.NewDecoder(resp.Body).Decode(&change); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s: status %d (%+v)", path, resp.StatusCode, change)
	}
	if change.Handoff == nil {
		t.Fatalf("%s: no handoff started", path)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := clusterStatusOf(t, gwURL)
		if st.Handoff == nil || st.Handoff.ID != change.Handoff.ID {
			if st.LastHandoff == nil || st.LastHandoff.ID != change.Handoff.ID {
				t.Fatalf("handoff %s vanished", change.Handoff.ID)
			}
			return st.LastHandoff
		}
		if time.Now().After(deadline) {
			t.Fatalf("handoff stuck in %s", st.Handoff.Phase)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func clusterStatusOf(t *testing.T, gwURL string) cluster.ClusterStatusResponse {
	t.Helper()
	resp, err := http.Get(gwURL + cluster.ClusterStatusPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.ClusterStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// assertNoSplitHistory re-checks the cluster's hard invariant: every
// user's retained ADI lives whole on the shard the ring names owner.
func assertNoSplitHistory(t *testing.T, gw *cluster.Gateway, shards map[string]*clusterShard) {
	t.Helper()
	owners := map[string]string{}
	for id, s := range shards {
		for _, rec := range s.store().All() {
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

// TestElasticScaleOutAndDrainNoFalseGrants is the acceptance check for
// live resharding: seed MSoD history on a 2-shard cluster, scale out
// to 3 (moving real retained-ADI subtrees between real durable PDPs),
// then drain back to 2 — and at every stage each seeded user's MMER
// denial must hold. One grant that the pre-reshard cluster would have
// denied is the false grant the fail-closed handoff exists to prevent.
func TestElasticScaleOutAndDrainNoFalseGrants(t *testing.T) {
	gw, gwSrv, shards := newElasticCluster(t, 2)
	c := server.NewClient(gwSrv.URL, nil)

	// Seed: 24 tellers handle cash in Period=2006, binding each to the
	// MMER that forbids them auditing that period.
	users := make([]string, 0, 24)
	for i := 0; i < 24; i++ {
		users = append(users, fmt.Sprintf("teller-%02d", i))
	}
	for _, u := range users {
		r, err := c.Decision(server.DecisionRequest{
			User: u, Roles: []string{"Teller"},
			Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=2006",
		})
		if err != nil || !r.Allowed {
			t.Fatalf("seed %s = %+v, %v", u, r, err)
		}
	}
	// The shadow expectation, verified against the pre-reshard cluster:
	// every seeded teller is denied the Auditor step; a fresh user is
	// not.
	audit := func(u string) (bool, string) {
		r, err := c.Decision(server.DecisionRequest{
			User: u, Roles: []string{"Auditor"},
			Operation: "Audit", Target: "ledger", Context: "Branch=Leeds, Period=2006",
		})
		if err != nil {
			t.Fatalf("audit %s: %v", u, err)
		}
		return r.Allowed, r.Phase
	}
	checkGrants := func(stage string) {
		t.Helper()
		for _, u := range users {
			if allowed, phase := audit(u); allowed || phase != "msod" {
				t.Fatalf("FALSE GRANT after %s: %s audit allowed=%v phase=%s", stage, u, allowed, phase)
			}
		}
	}
	checkGrants("seed")

	// Scale out: shard-c joins live and the gateway streams the moving
	// users' subtrees into it.
	joiner := startElasticShard(t, "shard-c", filepath.Join(t.TempDir(), "shard-c"))
	shards["shard-c"] = joiner

	h := changeMembership(t, gwSrv.URL, cluster.ClusterJoinPath,
		cluster.ClusterMemberRequest{ID: "shard-c", URL: joiner.srv.URL})
	if h.Phase != cluster.PhaseDone {
		t.Fatalf("join handoff = %+v", h)
	}
	if h.Moved == 0 || joiner.store().Len() == 0 {
		t.Fatalf("join moved %d users, joiner holds %d records — nothing actually moved", h.Moved, joiner.store().Len())
	}
	// Audit checks above appended Auditor denials nowhere (denied ops
	// record nothing), so the histories are exactly the seeds; the MMER
	// must survive the move wherever each user now lives.
	checkGrants("scale-out")
	assertNoSplitHistory(t, gw, shards)

	// Scale back in: drain shard-c; its subtrees stream back to the
	// survivors and the MMER must survive the return trip too.
	h = changeMembership(t, gwSrv.URL, cluster.ClusterDrainPath,
		cluster.ClusterMemberRequest{ID: "shard-c"})
	if h.Phase != cluster.PhaseDone {
		t.Fatalf("drain handoff = %+v", h)
	}
	if joiner.store().Len() != 0 {
		t.Fatalf("drained shard still holds %d records", joiner.store().Len())
	}
	checkGrants("drain")
	delete(shards, "shard-c")
	assertNoSplitHistory(t, gw, shards)

	st := clusterStatusOf(t, gwSrv.URL)
	if len(st.Members) != 2 || st.Shards["shard-c"].Lifecycle != "gone" {
		t.Fatalf("post-drain status = %+v", st)
	}
}

// crashableProxy fronts a shard; when armed it "dies" on the first
// import — that request and every later one abort at the TCP level,
// the wire behavior of a process that crashed mid-RPC — until the
// test "restarts" the shard by clearing crashed.
type crashableProxy struct {
	armed   atomic.Bool
	crashed atomic.Bool
	inner   http.Handler
}

func (p *crashableProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == server.HandoffImportPath && p.armed.CompareAndSwap(true, false) {
		p.crashed.Store(true) // dies while the import is on the wire
	}
	if p.crashed.Load() {
		panic(http.ErrAbortHandler)
	}
	p.inner.ServeHTTP(w, r)
}

// TestElasticJoinerCrashMidHandoffDonorAuthoritative kills the joining
// shard at the worst moment — while the first subtree import is in
// flight — and verifies the failed handoff leaves the donors
// authoritative (no user's history lost or split), the cluster
// serving, and a later retry able to finish the move.
func TestElasticJoinerCrashMidHandoffDonorAuthoritative(t *testing.T) {
	gw, gwSrv, shards := newElasticCluster(t, 2)
	c := server.NewClient(gwSrv.URL, nil)

	users := make([]string, 0, 16)
	for i := 0; i < 16; i++ {
		users = append(users, fmt.Sprintf("teller-%02d", i))
	}
	for _, u := range users {
		r, err := c.Decision(server.DecisionRequest{
			User: u, Roles: []string{"Teller"},
			Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=2006",
		})
		if err != nil || !r.Allowed {
			t.Fatalf("seed %s = %+v, %v", u, r, err)
		}
	}

	joiner := startElasticShard(t, "shard-c", filepath.Join(t.TempDir(), "shard-c"))
	proxy := &crashableProxy{inner: joiner.node}
	proxy.armed.Store(true)
	proxySrv := httptest.NewServer(proxy)
	t.Cleanup(proxySrv.Close)

	// The join passes its health probe (the proxy is transparent until
	// the first import), then the joiner "crashes" mid-stream.
	h := changeMembership(t, gwSrv.URL, cluster.ClusterJoinPath,
		cluster.ClusterMemberRequest{ID: "shard-c", URL: proxySrv.URL})
	if h.Phase != cluster.PhaseFailed {
		t.Fatalf("handoff against crashed joiner = %+v", h)
	}

	// The donors never cut over: the ring still names them owner, every
	// seeded denial holds, and no history was lost or split.
	st := clusterStatusOf(t, gwSrv.URL)
	if len(st.Members) != 2 {
		t.Fatalf("ring grew despite failed handoff: %+v", st.Members)
	}
	if st.Shards["shard-c"].Lifecycle != "joining" {
		t.Fatalf("failed joiner lifecycle = %q, want joining", st.Shards["shard-c"].Lifecycle)
	}
	for _, u := range users {
		r, err := c.Decision(server.DecisionRequest{
			User: u, Roles: []string{"Auditor"},
			Operation: "Audit", Target: "ledger", Context: "Branch=Leeds, Period=2006",
		})
		if err != nil {
			t.Fatalf("audit %s after failed handoff: %v", u, err)
		}
		if r.Allowed {
			t.Fatalf("FALSE GRANT: %s granted Audit after joiner crash", u)
		}
	}
	assertNoSplitHistory(t, gw, shards)

	// Recovery: the joiner comes back (same durable state, same
	// address) and a retried join completes the move.
	proxy.crashed.Store(false)
	h = changeMembership(t, gwSrv.URL, cluster.ClusterJoinPath,
		cluster.ClusterMemberRequest{ID: "shard-c", URL: proxySrv.URL})
	if h.Phase != cluster.PhaseDone {
		t.Fatalf("retried join = %+v", h)
	}
	shards["shard-c"] = joiner
	for _, u := range users {
		r, err := c.Decision(server.DecisionRequest{
			User: u, Roles: []string{"Auditor"},
			Operation: "Audit", Target: "ledger", Context: "Branch=Leeds, Period=2006",
		})
		if err != nil {
			t.Fatalf("audit %s after recovery: %v", u, err)
		}
		if r.Allowed {
			t.Fatalf("FALSE GRANT: %s granted Audit after recovered join", u)
		}
	}
	assertNoSplitHistory(t, gw, shards)
}
