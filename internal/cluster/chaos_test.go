package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"msod/internal/fault"
	"msod/internal/server"
)

// occupyShardSlot claims the shard's single admission slot with a
// request whose body never completes; the returned conn releases it.
func occupyShardSlot(t *testing.T, shardURL string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(shardURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.WriteString(conn,
		"POST "+server.DecisionPath+" HTTP/1.1\r\nHost: hold\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	return conn
}

func chaosReq(user string) server.DecisionRequest {
	return server.DecisionRequest{
		User: user, Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=" + user,
	}
}

// TestClusterShedEndToEnd drives a saturated shard's load shedding
// through the whole stack: the shard sheds with 503 + Retry-After, the
// gateway forwards the hint instead of blocking a worker on it, the
// shed counter is observable on the gateway's aggregated scrape, and a
// PEP client with its default shed-retry budget transparently waits
// the hint out.
func TestClusterShedEndToEnd(t *testing.T) {
	shard := newShard(t, "a", shardSpec{opts: []server.Option{server.WithAdmissionLimit(1, time.Second)}})
	_, gts, _ := newGateway(t, Config{Retries: -1, FailAfter: 1000}, nil, shard.ts.URL)
	gwURL := gts.URL

	conn := occupyShardSlot(t, shard.ts.URL)
	defer conn.Close()

	// An impatient client sees the forwarded shed verdict unchanged.
	impatient := server.NewClient(gwURL, nil, server.WithShedRetries(0))
	_, err := impatient.Decision(chaosReq("alice"))
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("decision against saturated shard: err = %v, want shed 503", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("forwarded Retry-After = %v, want 1s", apiErr.RetryAfter)
	}
	if !strings.Contains(apiErr.Message, "capacity") {
		t.Fatalf("forwarded shed message = %q", apiErr.Message)
	}

	// The shard's shed counter rides the aggregated scrape with a
	// shard label.
	body := getBody(t, gwURL+server.MetricsPath)
	if !strings.Contains(body, `msod_shed_total{shard="a"} 1`) {
		t.Fatalf("aggregated metrics missing shard shed counter:\n%s", body)
	}

	// A patient client waits out the hint; the slot frees while it
	// waits, so the retry lands.
	go func() {
		time.Sleep(200 * time.Millisecond)
		conn.Close()
	}()
	patient := server.NewClient(gwURL, nil)
	start := time.Now()
	resp, err := patient.Decision(chaosReq("alice"))
	if err != nil || !resp.Allowed {
		t.Fatalf("decision through shed retry: %+v, %v", resp, err)
	}
	if waited := time.Since(start); waited < 900*time.Millisecond {
		t.Fatalf("client answered in %v — it cannot have waited out Retry-After", waited)
	}
}

// TestClusterChaoticTransport runs a two-shard cluster over a
// transport that resets a seeded 30%% of connections: with retries on,
// ~all decisions land; the rest fail closed with an explicit 503 —
// never a wrong or silently dropped answer.
func TestClusterChaoticTransport(t *testing.T) {
	rt := fault.NewRoundTripper(nil, 42)
	rt.InjectRate(0.3, fault.Trip{Kind: fault.TripReset})
	_, gts, cli := newGateway(t, Config{
		Retries:      4,
		RetryBackoff: 2 * time.Millisecond,
		FailAfter:    1000,
		BreakerAfter: 1000,
	}, rt, urls(newShards(t, 2, shardSpec{}))...)

	granted, failedClosed := 0, 0
	for i := 0; i < 40; i++ {
		user := fmt.Sprintf("u%02d", i)
		resp, err := cli.Decision(chaosReq(user))
		if err != nil {
			var apiErr *server.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
				t.Fatalf("user %s: err = %v, want explicit fail-closed 503", user, err)
			}
			failedClosed++
			continue
		}
		if !resp.Allowed || resp.User != user {
			t.Fatalf("user %s: wrong answer under chaotic transport: %+v", user, resp)
		}
		granted++
	}
	if granted < 35 {
		t.Fatalf("only %d/40 decisions landed (%d failed closed) — retries are not absorbing transport chaos", granted, failedClosed)
	}

	// The retry counter on the gateway's own series proves the chaos
	// was real and absorbed, not absent.
	body := getBody(t, gts.URL+server.MetricsPath)
	var retries int64
	for _, line := range strings.Split(body, "\n") {
		if n, err := fmt.Sscanf(line, "msodgw_retries_total %d", &retries); n == 1 && err == nil {
			break
		}
	}
	if retries == 0 {
		t.Fatalf("msodgw_retries_total = 0 under a 30%% reset rate:\n%s", body)
	}
}
