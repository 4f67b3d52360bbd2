package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/trace"
)

// startExplainServer is startServer with explain/SLO options applied.
func startExplainServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p, opts...))
	t.Cleanup(ts.Close)
	return ts
}

func TestExplainEndToEnd(t *testing.T) {
	ts := startExplainServer(t)
	c := NewClient(ts.URL, nil)
	ctx := "TaxOffice=Leeds, taxRefundProcess=p1"

	// A granted first step: the response echoes the requestID (here the
	// caller's idempotency ID) and its record shows the k movement.
	grant, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: ctx, RequestID: "req-grant",
	})
	if err != nil {
		t.Fatal(err)
	}
	if grant.RequestID != "req-grant" {
		t.Fatalf("response requestID = %q, want the idempotency ID", grant.RequestID)
	}
	rec, err := c.Explain("req-grant")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != "grant" || rec.User != "c1" || rec.Operation != "prepareCheck" || rec.Context != ctx {
		t.Fatalf("grant record = %+v", rec)
	}
	if rec.TraceID != grant.TraceID {
		t.Fatalf("record trace %q != response trace %q", rec.TraceID, grant.TraceID)
	}
	if len(rec.Rules) == 0 {
		t.Fatal("grant record carries no rule evaluations")
	}
	first := rec.Rules[0]
	if first.Kind != "MMEP" || first.K != 0 || first.KAfter != 1 || first.M != 2 || first.Denied {
		t.Fatalf("first rule eval = %+v, want k 0 -> 1 of m 2", first)
	}
	if rec.Governing == nil || rec.Governing.Denied {
		t.Fatalf("grant governing = %+v, want the tightest non-denying constraint", rec.Governing)
	}

	// The conflicting second step: denied, and the record names the
	// violated rule with its pre-decision counter at the cardinality.
	deny, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: ctx, RequestID: "req-deny",
	})
	if err != nil {
		t.Fatal(err)
	}
	if deny.Allowed {
		t.Fatalf("conflicting confirm granted: %+v", deny)
	}
	rec, err = c.Explain("req-deny")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != "deny" || rec.Phase != "msod" {
		t.Fatalf("deny record = %+v", rec)
	}
	if rec.Governing == nil || !rec.Governing.Denied {
		t.Fatalf("deny governing = %+v, want the denying rule", rec.Governing)
	}
	if rec.Governing.K != 1 || rec.Governing.KAfter != 1 || rec.Governing.M != 2 {
		t.Fatalf("deny counters = k %d -> %d of m %d, want 1 -> 1 of 2",
			rec.Governing.K, rec.Governing.KAfter, rec.Governing.M)
	}

	// Without an idempotency ID, the trace ID keys the record.
	bare, err := c.Decision(DecisionRequest{
		User: "c2", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if bare.RequestID != bare.TraceID {
		t.Fatalf("bare requestID = %q, want trace fallback %q", bare.RequestID, bare.TraceID)
	}
	if _, err := c.Explain(bare.RequestID); err != nil {
		t.Fatalf("trace-keyed record not served: %v", err)
	}

	// Unknown IDs are a 404, not an empty record.
	if _, err := c.Explain("never-seen"); err == nil {
		t.Fatal("unknown requestID served a record")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown requestID error = %v, want 404 APIError", err)
	}
}

func TestExplainAdvisoryNotRecorded(t *testing.T) {
	ts := startExplainServer(t)
	c := NewClient(ts.URL, nil)
	resp, err := c.Advice(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Advisories commit nothing, so there is no provenance to serve and
	// no requestID to dangle.
	if resp.RequestID != "" {
		t.Fatalf("advisory echoed requestID %q", resp.RequestID)
	}
}

func TestExplainDisabled(t *testing.T) {
	ts := startExplainServer(t, WithExplainCapacity(-1))
	c := NewClient(ts.URL, nil)
	resp, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1", RequestID: "req-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "" {
		t.Fatalf("disabled recorder still echoed requestID %q", resp.RequestID)
	}
	if _, err := c.Explain("req-1"); err == nil {
		t.Fatal("disabled recorder served a record")
	}
}

func TestExplainBadRequests(t *testing.T) {
	ts := startExplainServer(t)
	// Empty ID.
	resp, err := http.Get(ts.URL + ExplainPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ID status = %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Post(ts.URL+ExplainPath+"x", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

// scrape fetches /v1/metrics with an Accept header and returns body
// and Content-Type.
func scrape(t *testing.T, url, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+MetricsPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestMetricsExplainAndSLOFamilies(t *testing.T) {
	slo := obsv.NewSLO(obsv.SLOConfig{Latency: 50 * time.Millisecond})
	ts := startExplainServer(t, WithSLO(slo))
	c := NewClient(ts.URL, nil)
	if _, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1", RequestID: "req-1",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain("req-1"); err != nil {
		t.Fatal(err)
	}
	c.Explain("req-missing") // one recorded miss

	body, _ := scrape(t, ts.URL, "")
	for _, want := range []string{
		"msod_explain_records_retained 1",
		"msod_explain_evicted_total 0",
		"msod_explain_queries_total 2",
		"msod_explain_misses_total 1",
		"msod_slo_requests_total 1",
		`msod_slo_errors_total{slo="availability"} 0`,
		`msod_slo_error_budget_remaining{slo="latency"} 1`,
		`msod_slo_burn_rate{slo="availability",window="fast"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}
}

// TestMetricsDialectNegotiation pins the Accept-driven split: the
// classic dialect stays free of exemplars and EOF markers, the
// OpenMetrics dialect carries both and announces its content type.
func TestMetricsDialectNegotiation(t *testing.T) {
	ts := startExplainServer(t)
	c := NewClient(ts.URL, nil)
	if _, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	}); err != nil {
		t.Fatal(err)
	}

	classic, ctype := scrape(t, ts.URL, "")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("classic content type = %q", ctype)
	}
	if strings.Contains(classic, "# {") || strings.Contains(classic, "# EOF") {
		t.Fatal("classic dialect carries OpenMetrics syntax")
	}

	om, ctype := scrape(t, ts.URL, "application/openmetrics-text")
	if !strings.HasPrefix(ctype, "application/openmetrics-text") {
		t.Fatalf("OpenMetrics content type = %q", ctype)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics body does not end with EOF marker: ...%q", om[max(0, len(om)-40):])
	}
	// The decision above was traced, so its duration bucket retains an
	// exemplar that only this dialect may expose.
	if !strings.Contains(om, "msod_decision_duration_seconds_bucket") ||
		!strings.Contains(om, `# {trace_id="`) {
		t.Fatal("OpenMetrics dialect lost the duration exemplar")
	}
}

// TestExplainRequestIDWithSlash: a request ID is the caller's text, so
// one holding a "/" is answered and explained: the client sends it
// escaped (%2F) and the shard reads it from the path as sent. A raw
// "/" after the prefix names no ID.
func TestExplainRequestIDWithSlash(t *testing.T) {
	ts := startExplainServer(t)
	c := NewClient(ts.URL, nil)
	resp, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1", RequestID: "po/7",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "po/7" {
		t.Fatalf("answer requestID %q", resp.RequestID)
	}
	rec, err := c.Explain("po/7")
	if err != nil || rec.RequestID != "po/7" || rec.TraceID != resp.TraceID {
		t.Fatalf("explain po/7 = %+v, %v", rec, err)
	}
	raw, err := http.Get(ts.URL + ExplainPath + "po/7")
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("raw slash status = %d, want 400", raw.StatusCode)
	}
}

// TestDecisionRingRetention pins which lookup finds which record of the
// one decision ring: an errored decision's trace is served while
// /v1/explain has no record of it, an advisory's trace is found by
// trace ID only, and once as many newer records as the ring holds are
// filed, both lookups miss an evicted record.
func TestDecisionRingRetention(t *testing.T) {
	const capacity = 4
	ts := startExplainServer(t, WithExplainCapacity(capacity), WithTraceStore(trace.NewStore(trace.Config{SampleEvery: 1})))
	c := NewClient(ts.URL, nil)
	notFound := func(err error) bool {
		var apiErr *APIError
		return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
	}
	step := func(user, period, rid string) DecisionRequest {
		return DecisionRequest{User: user, Roles: []string{"Clerk"},
			Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
			Context: "TaxOffice=Leeds, taxRefundProcess=" + period, RequestID: rid}
	}

	// An errored decision (no subject): 400, its trace kept, no record.
	traceID := obsv.NewTraceID()
	body, _ := json.Marshal(DecisionRequest{Roles: []string{"Clerk"}, Operation: "prepareCheck",
		Target: "http://www.myTaxOffice.com/Check", Context: "TaxOffice=Leeds, taxRefundProcess=p0", RequestID: "r-err"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+DecisionPath, bytes.NewReader(body))
	req.Header.Set(obsv.TraceparentHeader, traceID.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("subject-less decision = %d, want 400", resp.StatusCode)
	}
	if tr, err := c.Trace(string(traceID)); err != nil || tr.Outcome != "error" || tr.RequestID != "r-err" {
		t.Fatalf("errored decision's trace = %+v, %v", tr, err)
	}
	if _, err := c.Explain("r-err"); !notFound(err) {
		t.Fatalf("errored decision explained: %v", err)
	}

	// An advisory: its trace is kept under its trace ID alone.
	adv, err := c.Advice(step("c1", "p1", ""))
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := c.Trace(adv.TraceID); err != nil || !tr.Advisory || tr.RequestID != "" {
		t.Fatalf("advisory's trace = %+v, %v", tr, err)
	}
	if _, err := c.Explain(adv.TraceID); !notFound(err) {
		t.Fatalf("advisory explained under its trace ID: %v", err)
	}

	// A decision, then as many newer ones as the ring holds.
	first, err := c.Decision(step("c2", "p2", "r-first"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain("r-first"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(first.TraceID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < capacity; i++ {
		if _, err := c.Decision(step(fmt.Sprintf("u%d", i), fmt.Sprintf("q%d", i), fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Explain("r-first"); !notFound(err) {
		t.Fatalf("evicted decision still explained: %v", err)
	}
	if _, err := c.Trace(first.TraceID); !notFound(err) {
		t.Fatalf("evicted decision's trace still served: %v", err)
	}
	for _, id := range []string{string(traceID), adv.TraceID} {
		if _, err := c.Trace(id); !notFound(err) {
			t.Fatalf("trace %s outlived the records filed after it: %v", id, err)
		}
	}
}
