package cluster

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"msod/internal/fault"
	"msod/internal/server"
)

// breakerConfig disables retries and sets the Checker threshold high,
// so the breaker — not the retry loop or the health checker — is the
// mechanism under test.
func breakerConfig(cooldown time.Duration) Config {
	return Config{Retries: -1, FailAfter: 1000, BreakerAfter: 3, BreakerCooldown: cooldown}
}

// TestGatewayBreakerTripsOnResets drives injected connection resets
// through the gateway until the shard's circuit opens, then checks the
// fail-fast 503 (with Retry-After), the /v1/metrics gauge, and the
// half-open recovery once the transport heals.
func TestGatewayBreakerTripsOnResets(t *testing.T) {
	rt := fault.NewRoundTripper(nil, 1)
	shard := newShard(t, "a", shardSpec{})
	gw, gts, _ := newGateway(t, breakerConfig(300*time.Millisecond), rt, shard.ts.URL)
	bootSynced(t, gw)
	// The first three decision requests die as connection resets.
	synced := rt.Requests()
	for i := 1; i <= 3; i++ {
		rt.InjectAt(synced+i, fault.Trip{Kind: fault.TripReset})
	}
	// Shed retries off: the raw 503s are the thing under test.
	cli := server.NewClient(gts.URL, nil, server.WithShedRetries(0))

	for i := 0; i < 3; i++ {
		_, err := cli.Decision(tellerGrant("alice"))
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("request %d: err = %v, want transport-failure 503", i, err)
		}
	}
	if st := gw.Breaker().State("a"); st != BreakerOpen {
		t.Fatalf("breaker state after 3 resets = %v, want open", st)
	}

	// Open circuit: refused before the shard is contacted, with a
	// Retry-After hint.
	before := rt.Requests()
	_, err := cli.Decision(tellerGrant("alice"))
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open err = %v, want 503", err)
	}
	if !strings.Contains(apiErr.Message, "circuit open") {
		t.Fatalf("breaker-open message = %q", apiErr.Message)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("breaker-open 503 missing Retry-After hint (got %v)", apiErr.RetryAfter)
	}
	if rt.Requests() != before {
		t.Fatal("open breaker still sent the request to the shard")
	}

	// The gauge is observable on the gateway's own scrape (the shard
	// scrape rides the same faulty-but-healed transport).
	body := getBody(t, gts.URL+server.MetricsPath)
	if !strings.Contains(body, `msodgw_breaker_state{shard="a"} 2`) {
		t.Fatalf("metrics missing open breaker gauge:\n%s", body)
	}
	if !strings.Contains(body, "msodgw_breaker_refused_total 1") {
		t.Fatalf("metrics missing breaker refusal counter:\n%s", body)
	}

	// After the cooldown the next request is the half-open probe; the
	// transport is healed, so it closes the circuit.
	time.Sleep(350 * time.Millisecond)
	resp, err := cli.Decision(tellerGrant("alice"))
	if err != nil || !resp.Allowed {
		t.Fatalf("probe decision after cooldown: %+v, %v", resp, err)
	}
	if st := gw.Breaker().State("a"); st != BreakerClosed {
		t.Fatalf("breaker state after successful probe = %v, want closed", st)
	}
	body = getBody(t, gts.URL+server.MetricsPath)
	if !strings.Contains(body, `msodgw_breaker_state{shard="a"} 0`) {
		t.Fatalf("metrics missing closed breaker gauge:\n%s", body)
	}
	if got := len(shard.users()); got != 1 {
		t.Fatalf("shard served %d decisions, want exactly the probe", got)
	}
}

// TestGatewayDefaultsMarkDownBeforeBreaker pins what the breaker adds
// under msodgw's defaults (retries 2, fail-after 2, breaker-after 5):
// nothing on a shard whose every request resets. The health checker
// counts the same transport failures through ReportFailure, so the
// shard goes Down on the second failed attempt of the first decision,
// three failures before the breaker's threshold, and later decisions
// are refused as down without reaching the shard.
func TestGatewayDefaultsMarkDownBeforeBreaker(t *testing.T) {
	rt := fault.NewRoundTripper(nil, 1)
	gw, gts, _ := newGateway(t, Config{}, rt, newShard(t, "a", shardSpec{}).ts.URL)
	bootSynced(t, gw)
	rt.InjectRate(1, fault.Trip{Kind: fault.TripReset})
	cli := server.NewClient(gts.URL, nil, server.WithShedRetries(0))

	before := rt.Requests()
	for i, want := range []string{"unreachable", "is down"} {
		_, err := cli.Decision(tellerGrant("alice"))
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable ||
			!strings.Contains(apiErr.Message, want) {
			t.Fatalf("decision %d: err = %v, want a 503 saying %q", i, err, want)
		}
	}
	if got := rt.Requests() - before; got != 2 {
		t.Errorf("shard requests = %d, want 2: the first decision's two attempts, none for the second", got)
	}
	if gw.Checker().Up("a") {
		t.Error("shard still up after two failed attempts")
	}
	if st := gw.Breaker().State("a"); st != BreakerClosed {
		t.Errorf("breaker = %v, want closed: the checker refuses first", st)
	}
}

// TestClientWaitsOutBreakerRetryAfter is the shed-retry satellite end
// to end: a client with its default shed-retry budget sees the
// breaker's 503 + Retry-After, waits it out, and transparently gets
// the decision once the circuit admits its probe.
func TestClientWaitsOutBreakerRetryAfter(t *testing.T) {
	rt := fault.NewRoundTripper(nil, 1)
	gw, gts, _ := newGateway(t, breakerConfig(500*time.Millisecond), rt, newShard(t, "a", shardSpec{}).ts.URL)
	bootSynced(t, gw)
	synced := rt.Requests()
	for i := 1; i <= 3; i++ {
		rt.InjectAt(synced+i, fault.Trip{Kind: fault.TripReset})
	}
	cli := server.NewClient(gts.URL, nil, server.WithShedRetries(0))
	for i := 0; i < 3; i++ {
		if _, err := cli.Decision(tellerGrant("alice")); err == nil {
			t.Fatal("expected transport-failure 503")
		}
	}
	if st := gw.Breaker().State("a"); st != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}

	// Default client: the breaker-open 503 carries Retry-After (floor
	// 1s > cooldown), so one transparent retry lands as the probe.
	patient := server.NewClient(gts.URL, nil)
	start := time.Now()
	resp, err := patient.Decision(tellerGrant("alice"))
	if err != nil || !resp.Allowed {
		t.Fatalf("decision through shed retry: %+v, %v", resp, err)
	}
	if waited := time.Since(start); waited < 500*time.Millisecond {
		t.Fatalf("client answered in %v — it cannot have waited out Retry-After", waited)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
