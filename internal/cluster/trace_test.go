package cluster

// End-to-end observability tests over shards with a durable audit
// trail: they prove one trace ID correlates the gateway's structured
// log line, the shard's DecisionResponse, and the shard's durable audit
// record.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"

	"msod/internal/audit"
	"msod/internal/obsv"
	"msod/internal/server"
)

// syncBuffer is a concurrency-safe log sink for the gateway's logger.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// gatewayLogLines decodes every JSON line the gateway logged.
func gatewayLogLines(t *testing.T, buf *syncBuffer) []map[string]any {
	t.Helper()
	var lines []map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if raw == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatalf("gateway log line is not JSON: %q: %v", raw, err)
		}
		lines = append(lines, m)
	}
	return lines
}

// TestClusterObservabilityTraceCorrelation drives one decision through
// a 3-shard cluster of real PDPs and asserts the SAME trace ID appears
// in (a) the gateway's structured decision log line, (b) the shard's
// DecisionResponse, and (c) the durable audit record the owning shard
// wrote — the correlation an operator uses to walk from a slow-log
// line to the tamper-evident record of what was decided.
func TestClusterObservabilityTraceCorrelation(t *testing.T) {
	logBuf := &syncBuffer{}
	shards := newShards(t, 3, shardSpec{trail: true})
	_, _, c := newGateway(t, Config{Retries: -1, FailAfter: 1, Logger: obsv.NewLogger(logBuf, "msodgw")}, nil, urls(shards)...)

	resp, err := c.Decision(server.DecisionRequest{
		User: "alice", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed || resp.Phase != "granted" {
		t.Fatalf("decision = %+v", resp)
	}
	if !obsv.TraceID(resp.TraceID).Valid() {
		t.Fatalf("response trace ID %q is not a valid trace ID", resp.TraceID)
	}

	// (a) the gateway logged the decision under the same trace ID.
	var logged bool
	for _, line := range gatewayLogLines(t, logBuf) {
		if line["msg"] == "decision" && line["traceID"] == resp.TraceID {
			logged = true
			if line["user"] != "alice" || line["allowed"] != true {
				t.Errorf("gateway log line fields = %v", line)
			}
		}
	}
	if !logged {
		t.Fatalf("no gateway log line carries trace ID %s\nlog:\n%s", resp.TraceID, logBuf.String())
	}

	// (c) exactly one shard's durable audit trail holds a record
	// stamped with the same trace ID.
	var found int
	for _, s := range shards {
		r, err := audit.NewReader(s.trailDir, trailKey)
		if err != nil {
			t.Fatal(err)
		}
		events, err := r.All()
		if err != nil {
			t.Fatalf("shard %s trail: %v", s.id, err)
		}
		for _, ev := range events {
			if ev.TraceID == resp.TraceID {
				found++
				if ev.User != "alice" || ev.Effect != audit.EffectGrant {
					t.Errorf("audit record = %+v", ev)
				}
			}
		}
	}
	if found != 1 {
		t.Fatalf("trace ID %s found in %d audit records, want exactly 1", resp.TraceID, found)
	}
}

// TestClusterTracePropagationFromPEP proves a caller-minted traceparent
// survives the full PEP → gateway → shard chain: the response echoes
// the caller's trace ID, not a gateway-minted one.
func TestClusterTracePropagationFromPEP(t *testing.T) {
	_, _, c := newGateway(t, Config{Retries: -1, FailAfter: 1}, nil, urls(newShards(t, 3, shardSpec{trail: true}))...)

	id := obsv.NewTraceID()
	if !id.Valid() {
		t.Fatal("NewTraceID failed")
	}
	ctx := obsv.WithTrace(context.Background(), obsv.NewTrace(id))
	resp, err := c.DecisionCtx(ctx, server.DecisionRequest{
		User: "bob", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=York, taxRefundProcess=p2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != string(id) {
		t.Fatalf("response trace ID = %q, want caller's %q", resp.TraceID, id)
	}
}

// TestClusterObservabilityMetricsFamilies scrapes a shard and the
// gateway after real decisions and asserts the telemetry families the
// runbook documents are present: per-stage histograms, the audit-trail
// error counter, build info, and uptime — and that the gateway's
// aggregation carries them shard-labelled.
func TestClusterObservabilityMetricsFamilies(t *testing.T) {
	shards := newShards(t, 3, shardSpec{trail: true})
	_, gts, c := newGateway(t, Config{Retries: -1, FailAfter: 1}, nil, urls(shards)...)

	users := []string{"u1", "u2", "u3", "u4"}
	for i, u := range users {
		inst := "TaxOffice=Leeds, taxRefundProcess=m" + users[i]
		if _, err := c.Decision(server.DecisionRequest{
			User: u, Roles: []string{"Clerk"},
			Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
			Context: inst,
		}); err != nil {
			t.Fatal(err)
		}
	}

	get := func(url string) string {
		t.Helper()
		resp, err := gts.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// A shard that served at least one decision has live stage
	// histograms; every shard exposes the declared families.
	shardBody := get(shards[0].ts.URL + server.MetricsPath)
	for _, stage := range []string{"cvs", "rbac", "msod", "store"} {
		want := `msod_stage_duration_seconds_bucket{stage="` + stage + `"`
		if !strings.Contains(shardBody, want) {
			t.Errorf("shard metrics missing %s", want)
		}
	}
	for _, fam := range []string{
		"msod_audit_trail_errors_total",
		`msod_build_info{component="msodd"`,
		"msod_uptime_seconds",
	} {
		if !strings.Contains(shardBody, fam) {
			t.Errorf("shard metrics missing %s", fam)
		}
	}

	// The gateway's aggregation carries the same families with a shard
	// label, plus its own build info.
	gwBody := get(gts.URL + server.MetricsPath)
	var stageLabelled, uptimeLabelled bool
	for _, line := range strings.Split(gwBody, "\n") {
		s, ok := obsv.ParseSeries(line)
		if !ok {
			continue
		}
		hasShard := strings.Contains(s.Labels, `shard="`)
		if s.Name == "msod_stage_duration_seconds_bucket" && hasShard {
			stageLabelled = true
		}
		if s.Name == obsv.UptimeMetric && hasShard {
			uptimeLabelled = true
		}
	}
	if !stageLabelled {
		t.Error("gateway metrics missing shard-labelled stage histogram series")
	}
	if !uptimeLabelled {
		t.Error("gateway metrics missing shard-labelled uptime series")
	}
	if !strings.Contains(gwBody, `msod_build_info{component="msodgw"`) {
		t.Error("gateway metrics missing its own build info")
	}
	if !strings.Contains(gwBody, "msod_audit_trail_errors_total") {
		t.Error("gateway metrics missing aggregated audit trail error counter")
	}
}
