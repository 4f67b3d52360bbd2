package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/credential"
	"msod/internal/explain"
	"msod/internal/obsv"
	"msod/internal/server"
)

// stubShard is a scripted PDP backend that records which users it was
// asked to decide for. Like the real PDP it echoes the resolved
// subject: req.User, or the first credential holder when only
// credentials are sent; echoUser, when set, overrides it (simulating a
// CVS that resolves the credentials to a different canonical user).
type stubShard struct {
	ts           *httptest.Server
	requests     atomic.Int64
	users        chan string // buffered log of decision users
	delay        time.Duration
	metricsDelay time.Duration
	healthy      atomic.Bool
	mgmtFail     atomic.Bool // management drops the connection (transport error)
	echoUser     string
	closed       []string // reported as Closed by every decision: a granted LastStep
	policy       string
	explainID    string // requestID this shard holds a provenance record for
}

// noInstances answers the gateway's activation sync before its first
// decision the way a shard that has started no context instance does.
func noInstances(w http.ResponseWriter, _ *http.Request) {
	json.NewEncoder(w).Encode(server.ActivationResponse{Contexts: []string{}})
}

func newStubShard(t *testing.T, policy string) *stubShard {
	t.Helper()
	s := &stubShard{users: make(chan string, 1024), policy: policy}
	s.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc(server.ActivationPath, noInstances)
	decide := func(w http.ResponseWriter, r *http.Request) {
		var req server.DecisionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.requests.Add(1)
		s.users <- req.User
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		resolved := s.echoUser
		if resolved == "" {
			resolved = req.RoutingSubject()
		}
		json.NewEncoder(w).Encode(server.DecisionResponse{Allowed: true, Phase: "granted", User: resolved, Closed: s.closed})
	}
	mux.HandleFunc(server.DecisionPath, decide)
	mux.HandleFunc(server.AdvicePath, decide)
	mux.HandleFunc(server.ManagementPath, func(w http.ResponseWriter, r *http.Request) {
		if s.mgmtFail.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
			return
		}
		json.NewEncoder(w).Encode(server.ManagementWireResponse{Removed: 1, Records: 2})
	})
	mux.HandleFunc(server.ExplainPath, func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, server.ExplainPath)
		if s.explainID == "" || id != s.explainID {
			http.Error(w, "no record", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(explain.Record{RequestID: id, User: "c1", Outcome: "grant"})
	})
	mux.HandleFunc(server.MetricsPath, func(w http.ResponseWriter, r *http.Request) {
		if s.metricsDelay > 0 {
			time.Sleep(s.metricsDelay)
		}
		fmt.Fprintf(w, "# HELP msod_decisions_total x\n# TYPE msod_decisions_total counter\nmsod_decisions_total %d\n", s.requests.Load())
		if obsv.WantOpenMetrics(r.Header.Get("Accept")) {
			// A shard speaking OpenMetrics annotates buckets with
			// exemplars and terminates with EOF; the gateway must forward
			// the former and strip the latter from the merged body.
			fmt.Fprintf(w, "# HELP msod_decision_duration_seconds x\n# TYPE msod_decision_duration_seconds histogram\n")
			fmt.Fprintf(w, "msod_decision_duration_seconds_bucket{le=\"+Inf\"} %d # {trace_id=\"stub-trace\"} 0.001\n", s.requests.Load())
			fmt.Fprintf(w, "# EOF\n")
		}
	})
	mux.HandleFunc(server.HealthPath, func(w http.ResponseWriter, r *http.Request) {
		if !s.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"status": "down"})
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "policy": s.policy})
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

// drainUsers returns the users the shard has decided for so far.
func (s *stubShard) drainUsers() []string {
	var out []string
	for {
		select {
		case u := <-s.users:
			out = append(out, u)
		default:
			return out
		}
	}
}

// newTestCluster wires n stub shards behind a gateway.
func newTestCluster(t *testing.T, n int, cfg Config) (*Gateway, *httptest.Server, []*stubShard) {
	t.Helper()
	shards := make([]*stubShard, n)
	for i := range shards {
		shards[i] = newStubShard(t, "pol-1")
		cfg.Shards = append(cfg.Shards, Shard{ID: fmt.Sprintf("shard%02d", i), BaseURL: shards[i].ts.URL})
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)
	return gw, gts, shards
}

// TestGatewayRoutesByUserConsistently: all of one user's requests land
// on one shard, and different users spread across shards.
func TestGatewayRoutesByUserConsistently(t *testing.T) {
	gw, gts, shards := newTestCluster(t, 3, Config{})
	c := server.NewClient(gts.URL, nil)
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	for round := 0; round < 5; round++ {
		for _, u := range users {
			if _, err := c.Decision(server.DecisionRequest{User: u, Operation: "op", Target: "t", Context: "P=1"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each user appears on exactly the shard the ring names, only there.
	owner := map[string]string{}
	for i, s := range shards {
		id := fmt.Sprintf("shard%02d", i)
		for _, u := range s.drainUsers() {
			if prev, seen := owner[u]; seen && prev != id {
				t.Fatalf("user %q served by both %s and %s", u, prev, id)
			}
			owner[u] = id
			want, _ := gw.ShardFor(u)
			if want != id {
				t.Fatalf("user %q on %s but ring owner is %s", u, id, want)
			}
		}
	}
	if len(owner) != len(users) {
		t.Fatalf("served %d users, want %d", len(owner), len(users))
	}
}

// TestGatewayRoutesByCredentialHolder: credential-only requests route
// by the asserted holder.
func TestGatewayRoutesByCredentialHolder(t *testing.T) {
	gw, gts, shards := newTestCluster(t, 3, Config{})
	c := server.NewClient(gts.URL, nil)
	req := server.DecisionRequest{
		Credentials: []credential.Credential{{Holder: "alice"}},
		Operation:   "op", Target: "t", Context: "P=1",
	}
	if _, err := c.Decision(req); err != nil {
		t.Fatal(err)
	}
	want, _ := gw.ShardFor("alice")
	for i, s := range shards {
		id := fmt.Sprintf("shard%02d", i)
		got := s.drainUsers()
		if id == want && len(got) != 1 {
			t.Errorf("owner %s saw %d requests", id, len(got))
		}
		if id != want && len(got) != 0 {
			t.Errorf("non-owner %s saw %v", id, got)
		}
	}
}

// TestGatewayFailsClosedOnDownShard: a down shard's users get 503 —
// never a grant from another shard — while other users are served.
func TestGatewayFailsClosedOnDownShard(t *testing.T) {
	gw, gts, shards := newTestCluster(t, 3, Config{FailAfter: 1})
	c := server.NewClient(gts.URL, nil)
	// The shard dies after the gateway's activation sync: a gateway that
	// starts with a shard down routes no decision at all
	// (TestClusterGatewayRestartWithActivationsPending).
	if err := gw.bootSync(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Find one user per shard.
	userOn := map[string]string{} // shard id -> user
	for i := 0; len(userOn) < 3 && i < 10000; i++ {
		u := fmt.Sprintf("user%05d", i)
		s, _ := gw.ShardFor(u)
		if _, ok := userOn[s]; !ok {
			userOn[s] = u
		}
	}
	victimShard := "shard01"
	victim := userOn[victimShard]

	// Kill shard01's backend and let the prober notice.
	for i, s := range shards {
		if fmt.Sprintf("shard%02d", i) == victimShard {
			s.ts.Close()
		}
	}
	gw.Checker().CheckNow()
	if gw.Checker().Up(victimShard) {
		t.Fatal("dead shard still marked up after probe")
	}

	_, err := c.Decision(server.DecisionRequest{User: victim, Operation: "op", Target: "t", Context: "P=1"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("victim decision error = %v, want 503", err)
	}
	if !strings.Contains(apiErr.Message, "failing closed") {
		t.Errorf("503 message %q does not explain fail-closed", apiErr.Message)
	}

	// Users on live shards are unaffected.
	for shard, u := range userOn {
		if shard == victimShard {
			continue
		}
		if _, err := c.Decision(server.DecisionRequest{User: u, Operation: "op", Target: "t", Context: "P=1"}); err != nil {
			t.Errorf("user %q on live shard %s: %v", u, shard, err)
		}
	}
	// And crucially: no other shard ever saw the victim user.
	for i, s := range shards {
		id := fmt.Sprintf("shard%02d", i)
		for _, u := range s.drainUsers() {
			if u == victim && id != victimShard {
				t.Fatalf("victim user %q re-routed to %s", victim, id)
			}
		}
	}
}

// TestGatewayNoRerouteWhileSlow: a shard that is merely slow (past the
// deadline) produces a 503 for its users; the request is never handed
// to a different shard.
func TestGatewayNoRerouteWhileSlow(t *testing.T) {
	gw, gts, shards := newTestCluster(t, 2, Config{
		Timeout: 50 * time.Millisecond,
		Retries: -1, // no retries: the test asserts routing, not persistence
	})
	// Make every shard slow; pick a user and stall only its owner.
	u := "slow-user"
	owner, _ := gw.ShardFor(u)
	for i, s := range shards {
		if fmt.Sprintf("shard%02d", i) == owner {
			s.delay = 300 * time.Millisecond
		}
	}
	c := server.NewClient(gts.URL, nil)
	_, err := c.Decision(server.DecisionRequest{User: u, Operation: "op", Target: "t", Context: "P=1"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("slow-shard decision error = %v, want 503", err)
	}
	for i, s := range shards {
		id := fmt.Sprintf("shard%02d", i)
		for _, got := range s.drainUsers() {
			if got == u && id != owner {
				t.Fatalf("slow user re-routed to %s", id)
			}
		}
	}
}

// TestGatewayRetriesSameShard: a transient transport failure is
// retried against the same shard and succeeds.
func TestGatewayRetriesSameShard(t *testing.T) {
	// A backend whose first connection attempt fails at the HTTP layer:
	// simulate with a handler that hijacks+drops the first request.
	var drops atomic.Int64
	ids := make(chan string, 8) // RequestID of every attempt that arrived
	mux := http.NewServeMux()
	mux.HandleFunc(server.DecisionPath, func(w http.ResponseWriter, r *http.Request) {
		var req server.DecisionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		ids <- req.RequestID
		if drops.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // abrupt close → transport error at the client
			return
		}
		json.NewEncoder(w).Encode(server.DecisionResponse{Allowed: true, Phase: "granted", User: req.User})
	})
	mux.HandleFunc(server.HealthPath, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "policy": "p"})
	})
	mux.HandleFunc(server.ActivationPath, noInstances)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	gw, err := New(Config{
		Shards:       []Shard{{ID: "only", BaseURL: ts.URL}},
		Retries:      2,
		RetryBackoff: time.Millisecond,
		FailAfter:    5, // stay Up through the transient failure
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)

	resp, err := server.NewClient(gts.URL, nil).Decision(server.DecisionRequest{User: "u", Operation: "op", Target: "t", Context: "P=1"})
	if err != nil || !resp.Allowed {
		t.Fatalf("retried decision = %+v, %v", resp, err)
	}
	// Both attempts must carry the same gateway-minted idempotency ID,
	// so the shard can dedupe a retry whose first attempt committed.
	first, second := <-ids, <-ids
	if first == "" || first != second {
		t.Errorf("retry idempotency IDs = %q, %q; want identical non-empty", first, second)
	}
}

// TestGatewayForwardsShardVerdicts: deliberate shard answers (4xx) are
// forwarded as-is, not retried and not converted to 503.
func TestGatewayForwardsShardVerdicts(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(server.DecisionPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "context: bad"})
	})
	mux.HandleFunc(server.HealthPath, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc(server.ActivationPath, noInstances)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	gw, err := New(Config{Shards: []Shard{{ID: "only", BaseURL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)

	_, err = server.NewClient(gts.URL, nil).Decision(server.DecisionRequest{User: "u", Operation: "op", Target: "t", Context: "==="})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want forwarded 400", err)
	}
	if !strings.Contains(apiErr.Message, "context: bad") {
		t.Errorf("forwarded message = %q", apiErr.Message)
	}
}

// TestGatewayManagementFanout: aggregation over all shards, and
// fail-closed when any shard is down.
func TestGatewayManagementFanout(t *testing.T) {
	gw, gts, shards := newTestCluster(t, 3, Config{FailAfter: 1})
	c := server.NewClient(gts.URL, nil)
	res, err := c.Manage(server.ManagementWireRequest{User: "root", Roles: []string{"RetainedADIController"}, Operation: "stats"})
	if err != nil {
		t.Fatal(err)
	}
	// Each stub reports Removed:1 Records:2.
	if res.Removed != 3 || res.Records != 6 {
		t.Errorf("aggregate = %+v", res)
	}

	shards[1].healthy.Store(false)
	gw.Checker().CheckNow()
	_, err = c.Manage(server.ManagementWireRequest{User: "root", Roles: []string{"RetainedADIController"}, Operation: "stats"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("management with down shard = %v, want 503", err)
	}
}

// TestGatewayMetricsAggregation: scraped shard series carry a shard
// label (one series per shard, summable by the scraper), family
// headers appear exactly once, and the gateway's own series ride
// along.
func TestGatewayMetricsAggregation(t *testing.T) {
	_, gts, _ := newTestCluster(t, 3, Config{})
	c := server.NewClient(gts.URL, nil)
	for i := 0; i < 6; i++ {
		if _, err := c.Decision(server.DecisionRequest{User: fmt.Sprintf("u%d", i), Operation: "op", Target: "t", Context: "P=1"}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(gts.URL + server.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	// Every shard contributes its own labelled series; the per-shard
	// values sum to the routed total.
	total := 0.0
	perShard := 0
	for _, line := range strings.Split(out, "\n") {
		s, ok := obsv.ParseSeries(line)
		if !ok || s.Name != "msod_decisions_total" {
			continue
		}
		if !strings.Contains(s.Labels, `shard="shard0`) {
			t.Errorf("shard series without shard label: %q", line)
		}
		perShard++
		total += s.Value
	}
	if perShard != 3 || total != 6 {
		t.Errorf("msod_decisions_total: %d shard series summing to %v, want 3 summing to 6:\n%s", perShard, total, out)
	}
	if n := strings.Count(out, "# TYPE msod_decisions_total counter"); n != 1 {
		t.Errorf("family header appears %d times, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, "msodgw_routed_total 6") {
		t.Errorf("gateway counter missing:\n%s", out)
	}
	if !strings.Contains(out, `msodgw_shard_up{shard="shard00"} 1`) {
		t.Errorf("shard gauge missing:\n%s", out)
	}
	if !strings.Contains(out, `msod_build_info{component="msodgw"`) {
		t.Errorf("gateway build info missing:\n%s", out)
	}
}

// TestGatewayHealthEndpoint: ok when all up, degraded after a loss.
func TestGatewayHealthEndpoint(t *testing.T) {
	gw, gts, shards := newTestCluster(t, 2, Config{FailAfter: 1})
	gw.Checker().CheckNow()
	get := func() map[string]any {
		resp, err := http.Get(gts.URL + server.HealthPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if h := get(); h["status"] != "ok" {
		t.Errorf("healthy cluster reported %v", h)
	}
	shards[0].healthy.Store(false)
	gw.Checker().CheckNow()
	if h := get(); h["status"] != "degraded" {
		t.Errorf("degraded cluster reported %v", h)
	}
}

// TestGatewayBadRequests: unroutable and malformed inputs are rejected
// at the gateway.
func TestGatewayBadRequests(t *testing.T) {
	_, gts, shards := newTestCluster(t, 2, Config{})
	c := server.NewClient(gts.URL, nil)
	_, err := c.Decision(server.DecisionRequest{Operation: "op", Target: "t", Context: "P=1"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("subject-less request = %v, want 400", err)
	}
	resp, err := http.Post(gts.URL+server.DecisionPath, "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d", resp.StatusCode)
	}
	resp, err = http.Get(gts.URL + server.DecisionPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET decision = %d", resp.StatusCode)
	}
	for _, s := range shards {
		if got := s.drainUsers(); len(got) != 0 {
			t.Errorf("bad requests reached a shard: %v", got)
		}
	}
}

// TestGatewayShardRejoinRequiresProbe: after SetShardAddr, a Down
// shard serves again only once a probe passes.
func TestGatewayShardRejoinRequiresProbe(t *testing.T) {
	gw, gts, shards := newTestCluster(t, 2, Config{FailAfter: 1, Retries: -1})
	c := server.NewClient(gts.URL, nil)
	u := "rejoiner"
	owner, _ := gw.ShardFor(u)
	var idx int
	for i := range shards {
		if fmt.Sprintf("shard%02d", i) == owner {
			idx = i
		}
	}
	shards[idx].ts.Close()
	gw.Checker().CheckNow()

	// Replacement backend at a new address, same shard identity.
	repl := newStubShard(t, "pol-1")
	if err := gw.SetShardAddr(owner, repl.ts.URL); err != nil {
		t.Fatal(err)
	}
	// Still down until a probe succeeds.
	_, err := c.Decision(server.DecisionRequest{User: u, Operation: "op", Target: "t", Context: "P=1"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("pre-probe decision = %v, want 503", err)
	}
	gw.Checker().CheckNow()
	if resp, err := c.Decision(server.DecisionRequest{User: u, Operation: "op", Target: "t", Context: "P=1"}); err != nil || !resp.Allowed {
		t.Fatalf("post-probe decision = %+v, %v", resp, err)
	}
	if err := gw.SetShardAddr("nope", "http://x"); err == nil {
		t.Error("SetShardAddr accepted unknown shard")
	}
}

// TestCheckerThresholds: failures accumulate to Down; one success
// restores Up; periodic probing works.
func TestCheckerThresholds(t *testing.T) {
	var fail atomic.Bool
	probe := func(shard string) (string, error) {
		if fail.Load() {
			return "", errors.New("probe down")
		}
		return "pol", nil
	}
	c := NewChecker([]string{"s"}, probe, 2)
	if !c.Up("s") {
		t.Fatal("fresh checker not up")
	}
	fail.Store(true)
	c.CheckNow()
	if !c.Up("s") {
		t.Fatal("down after 1 failure with failAfter=2")
	}
	c.CheckNow()
	if c.Up("s") {
		t.Fatal("still up after 2 failures")
	}
	fail.Store(false)
	c.CheckNow()
	if !c.Up("s") {
		t.Fatal("not restored after success")
	}
	// ReportFailure path.
	c.ReportFailure("s", errors.New("conn refused"))
	c.ReportFailure("s", errors.New("conn refused"))
	if c.Up("s") {
		t.Fatal("transport failures did not mark down")
	}
	st := c.Statuses()["s"]
	if st.Consecutive != 2 || st.LastErr == "" {
		t.Errorf("status = %+v", st)
	}
	// Periodic loop drives recovery too.
	c.Start(5 * time.Millisecond)
	defer c.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for !c.Up("s") {
		if time.Now().After(deadline) {
			t.Fatal("periodic probe never restored the shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.ReportFailure("ghost", errors.New("x")) // unknown shard: no panic
}

// TestNewConfigValidation: invalid topologies are rejected.
func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Shards: []Shard{{ID: "", BaseURL: "http://x"}}}); err == nil {
		t.Error("anonymous shard accepted")
	}
	if _, err := New(Config{Shards: []Shard{
		{ID: "a", BaseURL: "http://x"}, {ID: "a", BaseURL: "http://y"},
	}}); err == nil {
		t.Error("duplicate shard id accepted")
	}
}

// TestGatewayWithholdsMisroutedAnswer: when a shard answers for a
// subject other than the one the request was routed on — a shard of an
// older release that does not refuse it with a 421 — the answer is
// withheld (502), never forwarded as a grant.
func TestGatewayWithholdsMisroutedAnswer(t *testing.T) {
	gw, gts, shards := newTestCluster(t, 2, Config{})
	// Find a routing key owned by shard00 and a canonical user owned by
	// shard01.
	var keyOn0, userOn1 string
	for i := 0; (keyOn0 == "" || userOn1 == "") && i < 10000; i++ {
		u := fmt.Sprintf("user%05d", i)
		switch s, _ := gw.ShardFor(u); s {
		case "shard00":
			if keyOn0 == "" {
				keyOn0 = u
			}
		case "shard01":
			if userOn1 == "" {
				userOn1 = u
			}
		}
	}
	// shard00 "resolves" every subject to a user shard01 owns.
	shards[0].echoUser = userOn1

	c := server.NewClient(gts.URL, nil)
	_, err := c.Decision(server.DecisionRequest{User: keyOn0, Operation: "op", Target: "t", Context: "P=1"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("misrouted decision = %v, want withheld 502", err)
	}
	if !strings.Contains(apiErr.Message, userOn1) || !strings.Contains(apiErr.Message, keyOn0) || strings.Contains(apiErr.Message, "shard01") {
		t.Errorf("502 message %q does not name the resolved subject and the routing key, or names another owner", apiErr.Message)
	}
	// The advisory path applies the same guard.
	_, err = c.Advice(server.DecisionRequest{User: keyOn0, Operation: "op", Target: "t", Context: "P=1"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("misrouted advice = %v, want withheld 502", err)
	}
	// A shard that answers without naming the resolved subject is just
	// as untrustworthy.
	shards[0].echoUser = ""
	_, err = c.Decision(server.DecisionRequest{User: keyOn0, Operation: "op", Target: "t", Context: "P=1"})
	if err != nil {
		t.Fatalf("correctly-routed decision rejected: %v", err)
	}
	// And the misroutes are visible to operators.
	resp, err := http.Get(gts.URL + server.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "msodgw_misrouted_total 2") {
		t.Errorf("misroute counter missing:\n%s", raw)
	}
}

// TestGatewayManagementPartialFailure: when a shard fails mid-fan-out,
// the error reports per-shard outcomes — which shards applied the
// operation — instead of an opaque error implying nothing happened.
func TestGatewayManagementPartialFailure(t *testing.T) {
	_, gts, shards := newTestCluster(t, 3, Config{Retries: -1, FailAfter: 10})
	shards[1].mgmtFail.Store(true)

	resp, err := http.Post(gts.URL+server.ManagementPath, "application/json",
		strings.NewReader(`{"user":"root","roles":["RetainedADIController"],"operation":"stats"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("partial failure status = %d, want 502", resp.StatusCode)
	}
	var body struct {
		Error  string                       `json:"error"`
		Shards map[string]ManagementOutcome `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "2 of 3") {
		t.Errorf("error %q does not state how many shards applied", body.Error)
	}
	if len(body.Shards) != 3 {
		t.Fatalf("outcomes = %+v, want all 3 shards", body.Shards)
	}
	for id, want := range map[string]bool{"shard00": true, "shard01": false, "shard02": true} {
		got := body.Shards[id]
		if got.Applied != want {
			t.Errorf("shard %s applied = %v, want %v", id, got.Applied, want)
		}
		if !want && got.Error == "" {
			t.Errorf("failed shard %s has no error detail", id)
		}
	}
}

// TestGatewayManagementUniformRefusal: when every shard refuses the
// operation with the same deliberate status, that verdict is forwarded
// (nothing was applied anywhere), not collapsed into a 502.
func TestGatewayManagementUniformRefusal(t *testing.T) {
	newRefusingShard := func() string {
		mux := http.NewServeMux()
		mux.HandleFunc(server.ManagementPath, func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusForbidden)
			json.NewEncoder(w).Encode(map[string]string{"error": "not a controller"})
		})
		mux.HandleFunc(server.HealthPath, func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]string{"status": "ok", "policy": "p"})
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	gw, err := New(Config{Shards: []Shard{
		{ID: "a", BaseURL: newRefusingShard()},
		{ID: "b", BaseURL: newRefusingShard()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)

	_, err = server.NewClient(gts.URL, nil).Manage(server.ManagementWireRequest{User: "nobody", Operation: "stats"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusForbidden {
		t.Fatalf("uniform refusal = %v, want forwarded 403", err)
	}
	if !strings.Contains(apiErr.Message, "not a controller") {
		t.Errorf("refusal message %q lost the shard's reason", apiErr.Message)
	}
}

// TestGatewayMetricsScrapeConcurrent: slow shards are scraped in
// parallel, so one scrape costs ~one shard's latency, not their sum.
func TestGatewayMetricsScrapeConcurrent(t *testing.T) {
	_, gts, shards := newTestCluster(t, 3, Config{Timeout: 2 * time.Second})
	for _, s := range shards {
		s.metricsDelay = 150 * time.Millisecond
	}
	start := time.Now()
	resp, err := http.Get(gts.URL + server.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if elapsed > 400*time.Millisecond {
		t.Errorf("scrape of 3×150ms shards took %v; not concurrent", elapsed)
	}
	if !strings.Contains(string(raw), "aggregated over 3 live shard(s)") {
		t.Errorf("concurrent scrape lost shards:\n%s", raw)
	}
}
