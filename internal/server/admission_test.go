package server

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/fault"
	"msod/internal/fsx"
	"msod/internal/pdp"
	"msod/internal/policy"
)

// holdSlot opens a raw connection that claims an admission slot and
// then never delivers its body: the handler admits the request, then
// blocks in the JSON decode until the connection is closed.
func holdSlot(t *testing.T, ts *httptest.Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.WriteString(conn,
		"POST "+DecisionPath+" HTTP/1.1\r\nHost: hold\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{")
	if err != nil {
		t.Fatal(err)
	}
	// Give the handler time to pass admission and block on the body.
	time.Sleep(50 * time.Millisecond)
	return conn
}

func TestAdmissionShedsAtCapacity(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p, WithAdmissionLimit(1, 2*time.Second)))
	t.Cleanup(ts.Close)

	conn := holdSlot(t, ts)
	defer conn.Close()

	cli := NewClient(ts.URL, nil, WithShedRetries(0))
	req := DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	}
	_, err = cli.Decision(req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("decision at capacity: err = %v, want shed 503", err)
	}
	if apiErr.RetryAfter != 2*time.Second {
		t.Fatalf("shed Retry-After = %v, want 2s", apiErr.RetryAfter)
	}
	if !strings.Contains(apiErr.Message, "capacity") {
		t.Fatalf("shed message = %q", apiErr.Message)
	}

	// Metrics, health and introspection are not admission-gated: the
	// operator can always see a saturated server.
	body := metricsBody(t, ts.URL)
	if !strings.Contains(body, "msod_shed_total 1") {
		t.Fatalf("metrics missing shed counter:\n%s", body)
	}

	// Freeing the slot (the held request dies on the closed connection)
	// lets the same request through.
	conn.Close()
	time.Sleep(50 * time.Millisecond)
	resp, err := cli.Decision(req)
	if err != nil || !resp.Allowed {
		t.Fatalf("decision after release: %+v, %v", resp, err)
	}
}

// TestClientRetriesShedRequest exercises the client side of the shed
// contract: a 503 + Retry-After is transparently retried within the
// shed-retry budget, so a momentarily saturated PDP costs the caller
// latency, not an error.
func TestClientRetriesShedRequest(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p, WithAdmissionLimit(1, time.Second)))
	t.Cleanup(ts.Close)

	conn := holdSlot(t, ts)
	// Release the slot while the patient client is waiting out the hint.
	go func() {
		time.Sleep(200 * time.Millisecond)
		conn.Close()
	}()

	cli := NewClient(ts.URL, nil)
	start := time.Now()
	resp, err := cli.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	})
	if err != nil || !resp.Allowed {
		t.Fatalf("decision through shed retry: %+v, %v", resp, err)
	}
	if waited := time.Since(start); waited < 900*time.Millisecond {
		t.Fatalf("client answered in %v — it cannot have waited out Retry-After", waited)
	}
}

// TestDegradedReadOnlyLatch drives a durable-store write failure
// through the full HTTP stack: the failing decision 503s, the server
// latches read-only, further decisions and management are refused
// (terminal 503, no Retry-After), while advisories, health, metrics
// and state introspection keep answering.
func TestDegradedReadOnlyLatch(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	ffs := fault.NewFS(fsx.OS, 7)
	ds, err := adi.OpenDurableFS(t.TempDir(), []byte("degraded-secret"), true, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	p, err := pdp.New(pdp.Config{Policy: pol, Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p))
	t.Cleanup(ts.Close)
	cli := NewClient(ts.URL, nil)

	grant := func(user, inst string) DecisionRequest {
		return DecisionRequest{
			User: user, Roles: []string{"Clerk"},
			Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
			Context: "TaxOffice=Leeds, taxRefundProcess=" + inst,
		}
	}

	if resp, err := cli.Decision(grant("c1", "p1")); err != nil || !resp.Allowed {
		t.Fatalf("healthy decision: %+v, %v", resp, err)
	}

	// The next mutating disk operation — c2's grant hitting the WAL —
	// fails with EIO.
	ffs.InjectAt(ffs.Ops()+1, fault.EIO)
	_, err = cli.Decision(grant("c2", "p2"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("write-failure decision: err = %v, want 503", err)
	}
	if apiErr.RetryAfter != 0 {
		t.Fatalf("write-failure 503 carries Retry-After %v; it must be terminal", apiErr.RetryAfter)
	}

	// Latched: refused up front, before the PDP runs.
	_, err = cli.Decision(grant("c3", "p3"))
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("latched decision: err = %v, want 503", err)
	}
	if !strings.Contains(apiErr.Message, "read-only") {
		t.Fatalf("latched message = %q", apiErr.Message)
	}
	if apiErr.RetryAfter != 0 {
		t.Fatalf("latched 503 carries Retry-After %v", apiErr.RetryAfter)
	}
	if _, err := cli.Manage(ManagementWireRequest{
		User: "a1", Roles: []string{"RetainedADIController"},
		Operation: "purgeContext", ContextPattern: "TaxOffice=Leeds, taxRefundProcess=*",
	}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("latched management: err = %v, want 503", err)
	}

	// The read side stays up: advisories answer from the intact
	// in-memory retained ADI (c1 holds p1's prepare, so their confirm
	// advisory is an MSoD denial, not an error)...
	adv, err := cli.Advice(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	})
	if err != nil {
		t.Fatalf("advisory while degraded: %v", err)
	}
	if adv.Allowed || adv.Phase != "msod" {
		t.Fatalf("advisory while degraded = %+v", adv)
	}
	// ...introspection still serves the user's records...
	if st, err := cli.UserState("c1"); err != nil || len(st.Records) != 1 {
		t.Fatalf("user state while degraded: %+v, %v", st, err)
	}
	// ...health reports the wounded-but-live status...
	hr, err := http.Get(ts.URL + HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health["status"] != "degraded-readonly" {
		t.Fatalf("health status = %q, want degraded-readonly", health["status"])
	}
	// ...and the gauge is scrapeable.
	if body := metricsBody(t, ts.URL); !strings.Contains(body, "msod_degraded_readonly 1") {
		t.Fatalf("metrics missing degraded gauge:\n%s", body)
	}
}

// TestDegradedReadOnlyLatchOnPurge: the first write failure may be a
// management purge rather than a decision. purgeContext's store error
// keeps its chain like the other purges', so the purge answers a
// terminal 503 (it used to be a 403, as if the administrator lacked the
// permission) and latches read-only: the next decision is refused up
// front.
func TestDegradedReadOnlyLatchOnPurge(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	ffs := fault.NewFS(fsx.OS, 7)
	ds, err := adi.OpenDurableFS(t.TempDir(), []byte("degraded-secret"), true, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	p, err := pdp.New(pdp.Config{Policy: pol, Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cli := NewClient(ts.URL, nil)

	prepare := DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	}
	if resp, err := cli.Decision(prepare); err != nil || !resp.Allowed {
		t.Fatalf("healthy decision: %+v, %v", resp, err)
	}

	// The next mutating disk operation — the purge hitting the WAL —
	// fails with EIO.
	ffs.InjectAt(ffs.Ops()+1, fault.EIO)
	_, err = cli.Manage(ManagementWireRequest{
		User: "a1", Roles: []string{"RetainedADIController"},
		Operation: "purgeContext", ContextPattern: "TaxOffice=Leeds, taxRefundProcess=*",
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("write-failure purge: err = %v, want 503", err)
	}
	if apiErr.RetryAfter != 0 {
		t.Fatalf("write-failure 503 carries Retry-After %v; it must be terminal", apiErr.RetryAfter)
	}
	if !srv.Degraded() {
		t.Fatal("the failed purge did not latch read-only mode")
	}

	prepare.User, prepare.Context = "c2", "TaxOffice=Leeds, taxRefundProcess=p2"
	_, err = cli.Decision(prepare)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || !strings.Contains(apiErr.Message, "read-only") {
		t.Fatalf("decision after the failed purge: err = %v, want the read-only 503", err)
	}
}

func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d: %s", resp.StatusCode, b)
	}
	return string(b)
}
