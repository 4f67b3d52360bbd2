package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/trace"
)

// startObservedServer builds a server with decision logging at
// threshold zero (log every decision) into the returned buffer.
func startObservedServer(t *testing.T) (*Client, *bytes.Buffer) {
	t.Helper()
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ts := httptest.NewServer(New(p, WithDecisionLog(obsv.NewLogger(&buf, "msodd"), 0)))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, nil), &buf
}

func TestDecisionSlowLogCarriesTraceAndSpans(t *testing.T) {
	c, buf := startObservedServer(t)
	resp, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !obsv.TraceID(resp.TraceID).Valid() {
		t.Fatalf("response trace ID %q invalid", resp.TraceID)
	}

	var line map[string]any
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	found := false
	for dec.More() {
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line["msg"] == "decision" && line["traceID"] == resp.TraceID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no decision log line for trace %s\nlog: %s", resp.TraceID, buf.String())
	}
	spans, ok := line["spans"].(map[string]any)
	if !ok {
		t.Fatalf("log line has no spans group: %v", line)
	}
	for _, stage := range []string{obsv.StageCVS, obsv.StageRBAC, obsv.StageMSoD} {
		if _, ok := spans[stage]; !ok {
			t.Errorf("spans group missing %q: %v", stage, spans)
		}
	}
	if line["allowed"] != true || line["phase"] != "granted" {
		t.Errorf("log line fields = %v", line)
	}
}

func TestDecisionAdoptsCallerTraceparent(t *testing.T) {
	c, _ := startObservedServer(t)
	id := obsv.NewTraceID()
	ctx := obsv.WithTrace(context.Background(), obsv.NewTrace(id))
	resp, err := c.DecisionCtx(ctx, DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=York, taxRefundProcess=p9",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != string(id) {
		t.Fatalf("trace ID = %q, want caller's %q", resp.TraceID, id)
	}
}

func TestMetricsExposesStageAndTrailFamilies(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)
	if _, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`msod_stage_duration_seconds_bucket{stage="cvs"`,
		`msod_stage_duration_seconds_bucket{stage="rbac"`,
		`msod_stage_duration_seconds_bucket{stage="msod"`,
		`msod_stage_duration_seconds_bucket{stage="store"`,
		`msod_stage_duration_seconds_bucket{stage="audit"`,
		"msod_audit_trail_errors_total",
		`msod_build_info{component="msodd"`,
		"msod_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

func TestWithGaugeAppearsOnMetrics(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p, WithGauge("msod_test_gauge", "A test gauge.", func() float64 { return 42 })))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "msod_test_gauge 42") {
		t.Errorf("metrics missing registered gauge:\n%s", raw)
	}
}

// TestServedSpanTree pins the span tree of a served decision as
// GET /v1/traces/{id} shows it: a durable one-policy grant and an MSoD
// denial on a shard with a WAL-backed store and a trail, every trace
// kept, and a grant on a shard whose WAL syncs, where the wait for the
// sync is its own span after msod's (eight spans: none spills). Spans
// are in completion order; the engine's policy and store spans nest
// under msod and the WAL's under store; each child lies inside its
// parent. A start offset is truncated to the microsecond, so
// a child may end up to 1µs past its parent's shown end.
func TestServedSpanTree(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	store, err := adi.OpenDurable(t.TempDir(), []byte("span-tree"), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	trail, err := audit.NewWriter(t.TempDir(), []byte("span-tree-trail"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trail.Close() })
	p, err := pdp.New(pdp.Config{Policy: pol, Store: store, Trail: trail})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p, WithTraceStore(trace.NewStore(trace.Config{SampleEvery: 1})))
	syncedStore, err := adi.OpenDurable(t.TempDir(), []byte("span-tree-synced"), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syncedStore.Close() })
	syncedPDP, err := pdp.New(pdp.Config{Policy: pol, Store: syncedStore, Trail: trail})
	if err != nil {
		t.Fatal(err)
	}
	synced := New(syncedPDP, WithTraceStore(trace.NewStore(trace.Config{SampleEvery: 1})))

	const policySpan = "msod.policy:Branch=*, Period=!"
	for _, tc := range []struct {
		name    string
		srv     *Server // srv when nil
		req     DecisionRequest
		allowed bool
		spans   [][2]string // name, parent
	}{
		{
			name:    "durable grant",
			req:     DecisionRequest{User: "alice", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"},
			allowed: true,
			spans: [][2]string{
				{obsv.StageCVS, ""}, {obsv.StageRBAC, ""}, {policySpan, obsv.StageMSoD},
				{"store.wal", obsv.StageStore}, {obsv.StageStore, obsv.StageMSoD},
				{obsv.StageMSoD, ""}, {obsv.StageAudit, ""},
			},
		},
		{
			name: "MSoD denial",
			req:  DecisionRequest{User: "alice", Roles: []string{"Auditor"}, Operation: "Audit", Target: "ledger", Context: "Branch=York, Period=p1"},
			spans: [][2]string{
				{obsv.StageCVS, ""}, {obsv.StageRBAC, ""}, {policySpan, obsv.StageMSoD},
				{obsv.StageMSoD, ""}, {obsv.StageAudit, ""},
			},
		},
		{
			name:    "synced durable grant",
			srv:     synced,
			req:     DecisionRequest{User: "carol", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"},
			allowed: true,
			spans: [][2]string{
				{obsv.StageCVS, ""}, {obsv.StageRBAC, ""}, {policySpan, obsv.StageMSoD},
				{"store.wal", obsv.StageStore}, {obsv.StageStore, obsv.StageMSoD},
				{obsv.StageMSoD, ""}, {"store.sync", ""}, {obsv.StageAudit, ""},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := srv
			if tc.srv != nil {
				srv = tc.srv
			}
			body, _ := json.Marshal(tc.req)
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(body)))
			var resp DecisionResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Allowed != tc.allowed {
				t.Fatalf("answer %d %s (%v), want allowed=%v", w.Code, w.Body, err, tc.allowed)
			}
			w = httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, TracesPath+resp.TraceID, nil))
			var rec trace.Record
			if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
				t.Fatalf("GET trace: %d %s (%v)", w.Code, w.Body, err)
			}
			got := make([][2]string, len(rec.Spans))
			byName := map[string]trace.Span{}
			for i, s := range rec.Spans {
				got[i] = [2]string{s.Name, s.Parent}
				byName[s.Name] = s
			}
			if !reflect.DeepEqual(got, tc.spans) {
				t.Fatalf("spans (name, parent) in completion order:\n got %q\nwant %q", got, tc.spans)
			}
			end := func(s trace.Span) float64 { return float64(s.StartOffsetUS) + s.DurationSeconds*1e6 }
			for _, s := range rec.Spans {
				if s.StartOffsetUS < 0 || s.DurationSeconds < 0 {
					t.Errorf("span %q starts at %dµs for %vs", s.Name, s.StartOffsetUS, s.DurationSeconds)
				}
				if s.Parent == "" {
					continue
				}
				p := byName[s.Parent]
				if s.StartOffsetUS < p.StartOffsetUS || end(s) > end(p)+1 {
					t.Errorf("span %q [%dµs, %.3fµs] is not inside its parent %q [%dµs, %.3fµs]",
						s.Name, s.StartOffsetUS, end(s), p.Name, p.StartOffsetUS, end(p))
				}
			}
		})
	}
}

// TestDecisionLogBoundsTheRequest: a decision whose target is 300,000
// '<' logs one line under 1 KB, carrying a prefix of the target and its
// length: whole, the target would make the line as long as the request.
func TestDecisionLogBoundsTheRequest(t *testing.T) {
	c, buf := startObservedServer(t)
	huge := strings.Repeat("<", 300_000)
	body := []byte(`{"user":"c1","roles":["Clerk"],"operation":"prepareCheck","target":"` + huge + `","context":"TaxOffice=Leeds, taxRefundProcess=p1"}`)
	if _, err := c.PostRaw(context.Background(), DecisionPath, "", body); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"msg":"decision"`) {
			lines = append(lines, line)
		}
	}
	if len(lines) != 1 {
		t.Fatalf("%d decision lines, want 1", len(lines))
	}
	if line := lines[0]; len(line) >= 1<<10 || !strings.Contains(line, `"targetBytes":300000`) {
		t.Fatalf("the decision line is %d bytes: %.300s; want under 1 KB, naming the target's length", len(line), line)
	}
}
