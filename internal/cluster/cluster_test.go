package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/credential"
	"msod/internal/obsv"
	"msod/internal/server"
)

// TestGatewayRoutesByUserConsistently: all of one user's requests land
// on one shard, and different users spread across shards.
func TestGatewayRoutesByUserConsistently(t *testing.T) {
	shards := newShards(t, 3, shardSpec{})
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	for round := 0; round < 5; round++ {
		for _, u := range users {
			if _, err := c.Decision(tellerGrant(u)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each user appears on exactly the shard the ring names, only there.
	owner := map[string]string{}
	for _, s := range shards {
		for _, u := range s.users() {
			if prev, seen := owner[u]; seen && prev != s.id {
				t.Fatalf("user %q served by both %s and %s", u, prev, s.id)
			}
			owner[u] = s.id
			want, _ := gw.ShardFor(u)
			if want != s.id {
				t.Fatalf("user %q on %s but ring owner is %s", u, s.id, want)
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
	shards := newShards(t, 3, shardSpec{})
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	req := tellerGrant("")
	req.Roles, req.Credentials = nil, []credential.Credential{roleCredential(t, "alice", "Teller")}
	mustDecide(t, c, req, true)
	want, _ := gw.ShardFor("alice")
	for _, s := range shards {
		got := s.users()
		if s.id == want && len(got) != 1 {
			t.Errorf("owner %s saw %d requests", s.id, len(got))
		}
		if s.id != want && len(got) != 0 {
			t.Errorf("non-owner %s saw %v", s.id, got)
		}
	}
}

// TestGatewayFailsClosedOnDownShard: a down shard's users get 503 —
// never a grant from another shard — while other users are served.
func TestGatewayFailsClosedOnDownShard(t *testing.T) {
	shards := newShards(t, 3, shardSpec{})
	gw, _, c := newGateway(t, Config{FailAfter: 1}, nil, urls(shards)...)
	// The shard dies after the gateway's activation sync: a gateway that
	// starts with a shard down routes no decision at all
	// (TestClusterGatewayRestartWithActivationsPending).
	bootSynced(t, gw)

	victimShard := "b"
	victim := userOn(t, gw, victimShard, "user", 0)

	// Kill b's backend and let the prober notice.
	shards[1].ts.Close()
	gw.Checker().CheckNow()
	if gw.Checker().Up(victimShard) {
		t.Fatal("dead shard still marked up after probe")
	}

	_, err := c.Decision(tellerGrant(victim))
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("victim decision error = %v, want 503", err)
	}
	if !strings.Contains(apiErr.Message, "failing closed") {
		t.Errorf("503 message %q does not explain fail-closed", apiErr.Message)
	}

	// Users on live shards are unaffected.
	for _, shard := range []string{"a", "c"} {
		mustDecide(t, c, tellerGrant(userOn(t, gw, shard, "user", 0)), true)
	}
	// And crucially: no other shard ever saw the victim user.
	for _, s := range shards {
		for _, u := range s.users() {
			if u == victim && s.id != victimShard {
				t.Fatalf("victim user %q re-routed to %s", victim, s.id)
			}
		}
	}
}

// TestGatewayNoRerouteWhileSlow: a shard that is merely slow (past the
// deadline) produces a 503 for its users; the request is never handed
// to a different shard.
func TestGatewayNoRerouteWhileSlow(t *testing.T) {
	shards := newShards(t, 2, shardSpec{})
	gw, _, c := newGateway(t, Config{
		Timeout: 50 * time.Millisecond,
		Retries: -1, // no retries: the test asserts routing, not persistence
	}, nil, urls(shards)...)
	// Pick a user and stall only its owner.
	u := "slow-user"
	owner, _ := gw.ShardFor(u)
	for _, s := range shards {
		if s.id == owner {
			s.hold(t, server.DecisionPath)
		}
	}
	_, err := c.Decision(tellerGrant(u))
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("slow-shard decision error = %v, want 503", err)
	}
	for _, s := range shards {
		for _, got := range s.users() {
			if got == u && s.id != owner {
				t.Fatalf("slow user re-routed to %s", s.id)
			}
		}
	}
}

// TestGatewayRetriesSameShard: a transient transport failure is
// retried against the same shard and succeeds.
func TestGatewayRetriesSameShard(t *testing.T) {
	shard := newShard(t, "a", shardSpec{})
	shard.drop(server.DecisionPath, 0, 1) // abrupt close → transport error at the gateway
	_, _, c := newGateway(t, Config{
		Retries:      2,
		RetryBackoff: time.Millisecond,
		FailAfter:    5, // stay Up through the transient failure
	}, nil, shard.ts.URL)

	mustDecide(t, c, tellerGrant("u"), true)
	// Both attempts must carry the same gateway-minted idempotency ID,
	// so the shard can dedupe a retry whose first attempt committed.
	attempts := shard.requests()
	if len(attempts) != 2 || attempts[0].RequestID == "" || attempts[0].RequestID != attempts[1].RequestID {
		t.Errorf("retry attempts = %+v; want two with identical non-empty idempotency IDs", attempts)
	}
}

// TestGatewayForwardsShardVerdicts: deliberate shard answers (4xx) are
// forwarded as-is, not retried and not converted to 503.
func TestGatewayForwardsShardVerdicts(t *testing.T) {
	shard := newShard(t, "a", shardSpec{})
	_, _, c := newGateway(t, Config{}, nil, shard.ts.URL)
	req := tellerGrant("u")
	req.Context = "==="
	_, err := c.Decision(req)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want forwarded 400", err)
	}
	if !strings.HasPrefix(apiErr.Message, "context: bctx") {
		t.Errorf("forwarded message = %q", apiErr.Message)
	}
	if n := len(shard.users()); n != 1 {
		t.Errorf("the shard was asked %d times, want once", n)
	}
}

// TestGatewayManagementFanout: aggregation over all shards, and
// fail-closed when any shard is down.
func TestGatewayManagementFanout(t *testing.T) {
	shards := newShards(t, 3, shardSpec{})
	gw, _, c := newGateway(t, Config{FailAfter: 1}, nil, urls(shards)...)
	// Every shard retains two records, one of them in period p1.
	for _, s := range shards {
		req := tellerGrant(userOn(t, gw, s.id, "user", 0))
		mustDecide(t, c, req, true)
		req.Context = "Branch=York, Period=p2"
		mustDecide(t, c, req, true)
	}
	res, err := c.Manage(server.ManagementWireRequest{User: "root", Roles: []string{"RetainedADIController"},
		Operation: "purgeContext", ContextPattern: "Branch=York, Period=p1"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 3 || res.Records != 3 {
		t.Errorf("aggregate = %+v, want 3 removed and 3 left", res)
	}

	shards[1].setDown(true)
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
	_, gts, c := newGateway(t, Config{}, nil, urls(newShards(t, 3, shardSpec{}))...)
	for i := 0; i < 6; i++ {
		if _, err := c.Decision(tellerGrant(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	out := getBody(t, gts.URL+server.MetricsPath)
	// Every shard contributes its own labelled series; the per-shard
	// values sum to the routed total.
	total := 0.0
	perShard := 0
	labels := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		s, ok := obsv.ParseSeries(line)
		if !ok || s.Name != "msod_decisions_total" {
			continue
		}
		labels[s.Labels] = true
		perShard++
		total += s.Value
	}
	if perShard != 3 || total != 6 {
		t.Errorf("msod_decisions_total: %d shard series summing to %v, want 3 summing to 6:\n%s", perShard, total, out)
	}
	// Each series carries one configured shard ID, and each ID labels
	// one series.
	for i := 0; i < 3; i++ {
		if want := `shard="` + shardID(i) + `"`; !labels[want] {
			t.Errorf("no msod_decisions_total series labelled %s (labels %v):\n%s", want, labels, out)
		}
	}
	if n := strings.Count(out, "# TYPE msod_decisions_total counter"); n != 1 {
		t.Errorf("family header appears %d times, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, "msodgw_routed_total 6") {
		t.Errorf("gateway counter missing:\n%s", out)
	}
	if !strings.Contains(out, `msodgw_shard_up{shard="a"} 1`) {
		t.Errorf("shard gauge missing:\n%s", out)
	}
	if !strings.Contains(out, `msod_build_info{component="msodgw"`) {
		t.Errorf("gateway build info missing:\n%s", out)
	}
}

// TestGatewayHealthEndpoint: ok when all up, degraded after a loss.
func TestGatewayHealthEndpoint(t *testing.T) {
	shards := newShards(t, 2, shardSpec{})
	gw, gts, _ := newGateway(t, Config{FailAfter: 1}, nil, urls(shards)...)
	gw.Checker().CheckNow()
	get := func() map[string]any {
		var out map[string]any
		if err := json.Unmarshal([]byte(getBody(t, gts.URL+server.HealthPath)), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if h := get(); h["status"] != "ok" {
		t.Errorf("healthy cluster reported %v", h)
	}
	shards[0].setDown(true)
	gw.Checker().CheckNow()
	if h := get(); h["status"] != "degraded" {
		t.Errorf("degraded cluster reported %v", h)
	}
}

// TestGatewayBadRequests: unroutable and malformed inputs are rejected
// at the gateway.
func TestGatewayBadRequests(t *testing.T) {
	shards := newShards(t, 2, shardSpec{})
	_, gts, c := newGateway(t, Config{}, nil, urls(shards)...)
	_, err := c.Decision(tellerGrant(""))
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("subject-less request = %v, want 400", err)
	}
	if status, _ := post(t, gts.URL+server.DecisionPath, "{"); status != http.StatusBadRequest {
		t.Errorf("malformed body = %d", status)
	}
	resp, err := http.Get(gts.URL + server.DecisionPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET decision = %d", resp.StatusCode)
	}
	for _, s := range shards {
		if got := s.users(); len(got) != 0 {
			t.Errorf("bad requests reached a shard: %v", got)
		}
	}
}

// TestGatewayShardRejoinRequiresProbe: after SetShardAddr, a Down
// shard serves again only once a probe passes.
func TestGatewayShardRejoinRequiresProbe(t *testing.T) {
	shards := newShards(t, 2, shardSpec{})
	gw, _, c := newGateway(t, Config{FailAfter: 1, Retries: -1}, nil, urls(shards)...)
	u := "rejoiner"
	owner, _ := gw.ShardFor(u)
	for _, s := range shards {
		if s.id == owner {
			s.ts.Close()
		}
	}
	gw.Checker().CheckNow()

	// Replacement backend at a new address, same shard identity.
	repl := newShard(t, owner, shardSpec{})
	if err := gw.SetShardAddr(owner, repl.ts.URL); err != nil {
		t.Fatal(err)
	}
	// Still down until a probe succeeds.
	_, err := c.Decision(tellerGrant(u))
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("pre-probe decision = %v, want 503", err)
	}
	gw.Checker().CheckNow()
	mustDecide(t, c, tellerGrant(u), true)
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

// granting scripts a recording shard to grant every request for user.
func granting(user string) func(string, int) (int, string, bool) {
	return func(string, int) (int, string, bool) {
		return http.StatusOK, `{"allowed":true,"phase":"granted","user":"` + user + `"}`, false
	}
}

// TestGatewayWithholdsMisroutedAnswer: when a shard answers for a
// subject other than the one the request was routed on — a shard of an
// older release that does not refuse it with a 421 — the answer is
// withheld (502), never forwarded as a grant.
func TestGatewayWithholdsMisroutedAnswer(t *testing.T) {
	a, b := newRecordingShard(t), newRecordingShard(t)
	gw, gts, c := newGateway(t, Config{}, nil, a.ts.URL, b.ts.URL)
	keyOn0, userOn1 := userOn(t, gw, "a", "user", 0), userOn(t, gw, "b", "user", 0)
	// a "resolves" every subject to a user b owns.
	a.script(granting(userOn1))

	_, err := c.Decision(tellerGrant(keyOn0))
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("misrouted decision = %v, want withheld 502", err)
	}
	if !strings.Contains(apiErr.Message, userOn1) || !strings.Contains(apiErr.Message, keyOn0) || strings.Contains(apiErr.Message, "shard b") {
		t.Errorf("502 message %q does not name the resolved subject and the routing key, or names another owner", apiErr.Message)
	}
	// The advisory path applies the same guard.
	_, err = c.Advice(tellerGrant(keyOn0))
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("misrouted advice = %v, want withheld 502", err)
	}
	// The answer for the subject it was routed on is forwarded.
	a.script(granting(keyOn0))
	if _, err = c.Decision(tellerGrant(keyOn0)); err != nil {
		t.Fatalf("correctly-routed decision rejected: %v", err)
	}
	// And the misroutes are visible to operators.
	if got := gatewayCounter(t, gts.URL, "msodgw_misrouted_total"); got != "2" {
		t.Errorf("msodgw_misrouted_total = %s, want 2", got)
	}
}

// TestGatewayManagementPartialFailure: when a shard fails mid-fan-out,
// the error reports per-shard outcomes — which shards applied the
// operation — instead of an opaque error implying nothing happened.
func TestGatewayManagementPartialFailure(t *testing.T) {
	shards := newShards(t, 3, shardSpec{})
	_, gts, _ := newGateway(t, Config{Retries: -1, FailAfter: 10}, nil, urls(shards)...)
	shards[1].drop(server.ManagementPath, 0, -1)

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
	for id, want := range map[string]bool{"a": true, "b": false, "c": true} {
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
	_, _, c := newGateway(t, Config{}, nil, urls(newShards(t, 2, shardSpec{}))...)
	_, err := c.Manage(server.ManagementWireRequest{User: "nobody", Operation: "stats"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusForbidden {
		t.Fatalf("uniform refusal = %v, want forwarded 403", err)
	}
	if !strings.Contains(apiErr.Message, `"nobody"`) || !strings.Contains(apiErr.Message, "not permitted") {
		t.Errorf("refusal message %q lost the shard's reason", apiErr.Message)
	}
}

// TestGatewayMetricsScrapeConcurrent: shards are scraped in parallel,
// so one scrape costs ~one shard's latency, not their sum: every
// shard's scrape is in flight before any is answered.
func TestGatewayMetricsScrapeConcurrent(t *testing.T) {
	shards := newShards(t, 3, shardSpec{})
	_, gts, _ := newGateway(t, Config{Timeout: 2 * time.Second}, nil, urls(shards)...)
	var arrivals []<-chan struct{}
	var releases []func()
	for _, s := range shards {
		arrived, release := s.hold(t, server.MetricsPath)
		arrivals, releases = append(arrivals, arrived), append(releases, release)
	}
	scraped := make(chan string, 1)
	go func() {
		resp, err := http.Get(gts.URL + server.MetricsPath)
		if err != nil {
			scraped <- err.Error()
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		scraped <- string(raw)
	}()
	for _, scraping := range arrivals {
		arrived(t, scraping) // while the others are held: concurrent
	}
	for _, release := range releases {
		release()
	}
	if raw := <-scraped; !strings.Contains(raw, "aggregated over 3 live shard(s)") {
		t.Errorf("concurrent scrape lost shards:\n%s", raw)
	}
}
