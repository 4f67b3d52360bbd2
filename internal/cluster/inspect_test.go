package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/core"
	"msod/internal/inspect"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/server"
)

// clusterTaxPolicyXML is the paper's tax-refund scenario, shared by all
// real shards (the cluster requires one policy everywhere).
const clusterTaxPolicyXML = `
<RBACPolicy id="tax-cluster">
  <RoleList>
    <Role value="Clerk"/>
    <Role value="Manager"/>
  </RoleList>
  <RoleAssignmentPolicy>
    <Assignment soa="gov.tax.example" role="Clerk"/>
    <Assignment soa="gov.tax.example" role="Manager"/>
  </RoleAssignmentPolicy>
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

var clusterTrailKey = []byte("cluster-integration-trail-key")

// inspectShard is a full msodd-equivalent shard: live PDP, audit trail,
// event broker, and integrity sentinel behind a real server handler.
type inspectShard struct {
	id       string
	ts       *httptest.Server
	dir      string
	sentinel *inspect.Sentinel
	down     atomic.Bool // forces the health probe to answer 503
}

func newInspectShard(t *testing.T, id string, failClosed bool, interval time.Duration) *inspectShard {
	t.Helper()
	rs := &inspectShard{id: id, dir: t.TempDir()}
	trail, err := audit.NewWriter(rs.dir, clusterTrailKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trail.Close() })
	pol, err := policy.ParseRBACPolicy([]byte(clusterTaxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	broker := inspect.NewBroker(64)
	p, err := pdp.New(pdp.Config{
		Policy:   pol,
		Trail:    trail,
		Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rs.sentinel, err = inspect.NewSentinel(inspect.SentinelConfig{
		Dir: rs.dir, Key: clusterTrailKey, Interval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.sentinel.Stop)
	srv := server.New(p, server.WithEventBroker(broker), server.WithSentinel(rs.sentinel, failClosed))
	rs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rs.down.Load() && r.URL.Path == server.HealthPath {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(rs.ts.Close)
	return rs
}

// newInspectCluster wires n live shards behind a gateway and returns the
// shard map keyed by shard ID.
func newInspectCluster(t *testing.T, n int, failClosed bool, interval time.Duration) (*Gateway, *httptest.Server, map[string]*inspectShard) {
	t.Helper()
	cfg := Config{FailAfter: 1}
	byID := make(map[string]*inspectShard, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("shard%02d", i)
		rs := newInspectShard(t, id, failClosed, interval)
		byID[id] = rs
		cfg.Shards = append(cfg.Shards, Shard{ID: id, BaseURL: rs.ts.URL})
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)
	return gw, gts, byID
}

func prepare(t *testing.T, c *server.Client, user, bc string) server.DecisionResponse {
	t.Helper()
	resp, err := c.Decision(server.DecisionRequest{
		User: user, Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: bc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed {
		t.Fatalf("prepare for %s denied: %+v", user, resp)
	}
	return resp
}

func ownerOf(t *testing.T, gw *Gateway, shards map[string]*inspectShard, user string) *inspectShard {
	t.Helper()
	id, ok := gw.ShardFor(user)
	if !ok {
		t.Fatalf("no shard for %s", user)
	}
	return shards[id]
}

func TestClusterStateUserRoutedToOwner(t *testing.T) {
	gw, gts, shards := newInspectCluster(t, 3, false, time.Hour)
	c := server.NewClient(gts.URL, nil)
	users := []string{"alice", "bob", "carol", "dave"}
	for i, u := range users {
		prepare(t, c, u, fmt.Sprintf("TaxOffice=Leeds, taxRefundProcess=p%d", i))
	}

	for _, u := range users {
		st, err := c.UserState(u)
		if err != nil {
			t.Fatalf("UserState(%s): %v", u, err)
		}
		if st.User != u || len(st.Records) != 1 || len(st.Constraints) != 1 {
			t.Fatalf("state for %s = %+v", u, st)
		}
		if con := st.Constraints[0]; con.K != 1 || con.M != 2 || !con.NearLimit {
			t.Errorf("%s constraint = %+v, want 1 of 2 near-limit", u, con)
		}
		// The gateway's answer is the owning shard's answer, verbatim.
		owner := ownerOf(t, gw, shards, u)
		direct, err := server.NewClient(owner.ts.URL, nil).UserState(u)
		if err != nil {
			t.Fatal(err)
		}
		dc, gc := direct.Constraints[0], st.Constraints[0]
		if len(direct.Records) != len(st.Records) || dc.Rule != gc.Rule ||
			dc.K != gc.K || dc.M != gc.M || dc.Bound != gc.Bound {
			t.Errorf("gateway vs direct mismatch for %s: %+v vs %+v", u, st, direct)
		}
	}

	// The response names the shard that answered.
	resp, err := http.Get(gts.URL + server.StateUsersPath + "alice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantShard, _ := gw.ShardFor("alice")
	if got := resp.Header.Get("X-Msod-Shard"); got != wantShard {
		t.Errorf("X-Msod-Shard = %q, want %q", got, wantShard)
	}
}

func TestClusterStateUserFailsClosedWhenOwnerDown(t *testing.T) {
	gw, gts, shards := newInspectCluster(t, 3, false, time.Hour)
	c := server.NewClient(gts.URL, nil)
	prepare(t, c, "alice", "TaxOffice=Leeds, taxRefundProcess=p1")

	ownerOf(t, gw, shards, "alice").down.Store(true)
	gw.Checker().CheckNow()

	_, err := c.UserState("alice")
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("UserState with owner down = %v, want 503", err)
	}
}

func TestClusterStateContextMergesAcrossShards(t *testing.T) {
	gw, gts, shards := newInspectCluster(t, 3, false, time.Hour)
	c := server.NewClient(gts.URL, nil)
	// Enough users to cover several shards; all in ONE context instance.
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	for _, u := range users {
		prepare(t, c, u, "TaxOffice=Leeds, taxRefundProcess=p1")
	}

	st, err := c.ContextState("TaxOffice=*, taxRefundProcess=*")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Instances) != 1 {
		t.Fatalf("instances = %v, want the single shared instance", st.Instances)
	}
	var got []string
	for _, u := range st.Users {
		got = append(got, u.User)
	}
	want := append([]string(nil), users...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("merged users = %v, want %v (sorted union across shards)", got, want)
	}

	// A partial cluster cannot answer a cluster-wide question.
	for _, rs := range shards {
		rs.down.Store(true)
		break
	}
	gw.Checker().CheckNow()
	_, err = c.ContextState("TaxOffice=*, taxRefundProcess=*")
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("ContextState with a shard down = %v, want 503", err)
	}
}

// TestClusterTailObservesDenialWithAuditTrace is the acceptance
// scenario: a live 3-shard cluster, a tail over the gateway's fan-in
// stream, a denial, and the streamed trace ID matching the owning
// shard's durable audit record.
func TestClusterTailObservesDenialWithAuditTrace(t *testing.T) {
	gw, gts, shards := newInspectCluster(t, 3, false, time.Hour)
	c := server.NewClient(gts.URL, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	denials := make(chan inspect.DecisionEvent, 16)
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- c.FollowEvents(ctx, server.FollowEventsOptions{Outcome: "deny", Replay: 16},
			func(ev inspect.DecisionEvent) error {
				denials <- ev
				return nil
			})
	}()

	// alice prepares, then tries to confirm her own check: the MMEP
	// denies the second step. Replay covers the race with stream set-up.
	prepare(t, c, "alice", "TaxOffice=Leeds, taxRefundProcess=p1")
	confirm, err := c.Decision(server.DecisionRequest{
		User: "alice", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if confirm.Allowed {
		t.Fatalf("self-confirmation granted: %+v", confirm)
	}

	var ev inspect.DecisionEvent
	select {
	case ev = <-denials:
	case <-ctx.Done():
		t.Fatal("tail never observed the denial")
	}
	cancel()
	if err := <-streamErr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("stream ended with %v", err)
	}

	if ev.User != "alice" || ev.Effect != inspect.OutcomeDeny || ev.TraceID == "" {
		t.Fatalf("denial event = %+v", ev)
	}
	owner := ownerOf(t, gw, shards, "alice")
	if ev.Shard != owner.id {
		t.Errorf("event shard = %q, want owner %q", ev.Shard, owner.id)
	}

	// The same trace ID is in the owning shard's audit trail.
	r, err := audit.NewReader(owner.dir, clusterTrailKey)
	if err != nil {
		t.Fatal(err)
	}
	events, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	var matched bool
	for _, rec := range events {
		if rec.TraceID == ev.TraceID {
			if rec.User != "alice" || rec.Effect != audit.EffectDeny {
				t.Fatalf("audit record for trace %s = %+v", ev.TraceID, rec)
			}
			matched = true
		}
	}
	if !matched {
		t.Fatalf("trace %s not found in shard %s's trail (%d records)", ev.TraceID, owner.id, len(events))
	}
}

// TestClusterMidRunTamperFailsClosed: tampering with a shard's trail
// mid-run is detected within one sentinel interval; fail-closed, the
// shard then refuses decisions.
func TestClusterMidRunTamperFailsClosed(t *testing.T) {
	interval := 25 * time.Millisecond
	gw, gts, shards := newInspectCluster(t, 3, true, interval)
	c := server.NewClient(gts.URL, nil)
	prepare(t, c, "alice", "TaxOffice=Leeds, taxRefundProcess=p1")

	owner := ownerOf(t, gw, shards, "alice")
	// One clean pass checkpoints the current tail. (The background loop
	// starts only after the tamper below, so the rewritten entry is
	// guaranteed to sit past the checkpoint — the incremental verifier
	// does not recheck already-verified bytes; that is the startup
	// verifier's job.)
	if err := owner.sentinel.CheckNow(); err != nil {
		t.Fatalf("clean check: %v", err)
	}

	// Mid-run tamper: a second decision lands, then its record is
	// rewritten before the next pass. The LAST alice record is the
	// unverified one.
	prepare(t, c, "alice", "TaxOffice=York, taxRefundProcess=p2")
	segs, err := audit.Segments(owner.dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v", err)
	}
	path := filepath.Join(owner.dir, segs[len(segs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := strings.LastIndex(string(data), `"user":"alice"`)
	if idx < 0 {
		t.Fatal("tamper target missing")
	}
	mutated := string(data[:idx]) + `"user":"mallor"` + string(data[idx+len(`"user":"alice"`):])
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	owner.sentinel.Start()
	deadline := time.Now().Add(5 * time.Second)
	for !owner.sentinel.Tampered() {
		if time.Now().After(deadline) {
			t.Fatal("tamper not detected within the sentinel interval")
		}
		time.Sleep(interval)
	}

	// The compromised shard fails closed on its own API...
	direct := server.NewClient(owner.ts.URL, nil)
	_, err = direct.Decision(server.DecisionRequest{
		User: "alice", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Hull, taxRefundProcess=p3",
	})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("direct decision after tamper = %v, want 503", err)
	}
	// ...and its metrics latch the alarm.
	metrics := scrapeShardMetrics(t, owner.ts.URL)
	if !strings.Contains(metrics, inspect.TamperDetectedMetric+" 1") {
		t.Error("tamper gauge not latched on shard metrics")
	}
	// Through the gateway alice's decisions also fail (the owner refuses
	// and routing never moves a user off their shard).
	if _, err := c.Decision(server.DecisionRequest{
		User: "alice", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Hull, taxRefundProcess=p4",
	}); err == nil {
		t.Fatal("gateway decision for user on tampered fail-closed shard succeeded")
	}
}

func scrapeShardMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + server.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestClusterStateConsistentWithTrailReplay: every shard's live
// introspection answers must agree with an inspector rebuilt purely
// from that shard's audit trail (§5.2 recovery), proving /v1/state
// reports the same world the durable log records.
func TestClusterStateConsistentWithTrailReplay(t *testing.T) {
	gw, gts, shards := newInspectCluster(t, 3, false, time.Hour)
	c := server.NewClient(gts.URL, nil)
	users := []string{"alice", "bob", "carol", "dave", "erin"}
	for i, u := range users {
		prepare(t, c, u, fmt.Sprintf("TaxOffice=Leeds, taxRefundProcess=p%d", i%2))
	}
	// frank is denied a self-confirmation too: denials are in the trail
	// but must not perturb the replayed state.
	prepare(t, c, "frank", "TaxOffice=York, taxRefundProcess=q1")
	if resp, err := c.Decision(server.DecisionRequest{
		User: "frank", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: "TaxOffice=York, taxRefundProcess=q1",
	}); err != nil || resp.Allowed {
		t.Fatalf("frank self-confirm: allowed=%v err=%v", resp.Allowed, err)
	}

	pol, err := policy.ParseRBACPolicy([]byte(clusterTaxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range append(users, "frank") {
		owner := ownerOf(t, gw, shards, u)
		store, _, err := pdp.Recover(pol, pdp.RecoveryConfig{
			Mode: pdp.RecoverFromTrail, TrailDir: owner.dir, TrailKey: clusterTrailKey,
		})
		if err != nil {
			t.Fatalf("replaying %s's trail: %v", owner.id, err)
		}
		policies, err := core.Compile(pol.MSoD)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(store, policies)
		if err != nil {
			t.Fatal(err)
		}
		browser, ok := adi.BrowserFor(store)
		if !ok {
			t.Fatal("replayed store not browsable")
		}
		replayed := inspect.NewInspector(eng, browser, nil).UserState(rbac.UserID(u))

		live, err := c.UserState(u)
		if err != nil {
			t.Fatal(err)
		}
		if len(live.Records) != len(replayed.Records) ||
			len(live.Constraints) != len(replayed.Constraints) {
			t.Fatalf("%s: live %+v vs replayed %+v", u, live, replayed)
		}
		for i := range live.Constraints {
			lc, rc := live.Constraints[i], replayed.Constraints[i]
			if lc.Rule != rc.Rule || lc.K != rc.K || lc.M != rc.M ||
				lc.NearLimit != rc.NearLimit || lc.Bound != rc.Bound {
				t.Errorf("%s constraint %d: live %+v vs replayed %+v", u, i, lc, rc)
			}
		}
	}
}
