package obsv

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceIDAndTraceparentRoundTrip(t *testing.T) {
	id := NewTraceID()
	if !id.Valid() {
		t.Fatalf("NewTraceID() = %q, not valid", id)
	}
	parsed, ok := ParseTraceparent(id.Traceparent())
	if !ok || parsed != id {
		t.Fatalf("round trip: got %q ok=%v, want %q", parsed, ok, id)
	}
	// A minted traceparent carries its trace ID at [3:35], and two are
	// two traces.
	tp := NewTraceparent()
	if parsed, ok := ParseTraceparent(tp); !ok || string(parsed) != tp[3:35] || len(tp) != 55 || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("NewTraceparent() = %q, parses to %q (%v)", tp, parsed, ok)
	}
	if other := NewTraceparent(); other[3:35] == tp[3:35] {
		t.Fatalf("two traceparents share trace ID %q", tp[3:35])
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-0000000000000001-01", // all-zero trace ID
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // unknown version
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase hex
		"000af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // missing dash
	}
	for _, h := range bad {
		if id, ok := ParseTraceparent(h); ok {
			t.Fatalf("ParseTraceparent(%q) accepted as %q", h, id)
		}
	}
	good := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if id, ok := ParseTraceparent(good); !ok || id != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("ParseTraceparent(%q) = %q, %v", good, id, ok)
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTrace(NewTraceID())
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr || TraceIDFrom(ctx) != tr.ID() {
		t.Fatal("context round trip lost the trace")
	}

	end := StartSpan(ctx, StageCVS)
	time.Sleep(time.Millisecond)
	end.End()
	StartSpan(ctx, StageRBAC).End() // immediate end still records

	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != StageCVS || spans[1].Name != StageRBAC {
		t.Fatalf("spans = %+v, want cvs then rbac", spans)
	}
	if spans[0].Duration < time.Millisecond || spans[0].Start.Before(tr.Start()) {
		t.Fatalf("cvs span %+v, want >= 1ms from the trace's start %v", spans[0], tr.Start())
	}

	// Untraced context: spans are no-ops, IDs empty.
	if TraceFrom(context.Background()) != nil || TraceIDFrom(context.Background()) != "" {
		t.Fatal("empty context must carry no trace")
	}
	StartSpan(context.Background(), "x").End() // must not panic

	// A span ended twice (a copied SpanEnd) is recorded once, also as
	// the last span the inline arrays hold.
	for i := 0; i < inlineSpans-3; i++ {
		StartSpan(ctx, "filler").End()
	}
	twice := StartSpan(ctx, StageAudit)
	twice.End()
	twice.End()
	if got := tr.Spans(); len(got) != inlineSpans || got[inlineSpans-1].Name != StageAudit {
		t.Fatalf("%d spans after ending the %dth twice, want %d", len(got), inlineSpans, inlineSpans)
	}
}

// TestNewTraceIDEntropyFallback: without entropy a trace ID is the boot
// nonce and a counter — valid, unique, monotonic under one nonce.
func TestNewTraceIDEntropyFallback(t *testing.T) {
	id := func() TraceID {
		b := fallbackTraceBytes()
		return TraceID(hex.EncodeToString(b[:]))
	}
	a, b := id(), id()
	if !a.Valid() || !b.Valid() {
		t.Fatalf("fallback IDs must stay valid: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("fallback IDs must be unique, both %q", a)
	}
	// Same boot nonce, monotonic counter: prefixes match, suffixes grow.
	if a[:16] != b[:16] {
		t.Fatalf("fallback nonce changed between IDs: %q vs %q", a, b)
	}
	if !(string(a[16:]) < string(b[16:])) {
		t.Fatalf("fallback counter not monotonic: %q then %q", a, b)
	}
	// An all-zero nonce still yields a valid ID: the counter is never 0.
	var zero [16]byte
	binary.BigEndian.PutUint64(zero[8:], 1)
	if !TraceID(hex.EncodeToString(zero[:])).Valid() {
		t.Fatal("a zero nonce with counter 1 is not a valid ID")
	}
}

func TestTraceSpanParents(t *testing.T) {
	tr := NewTrace(NewTraceID())
	endMSoD := tr.StartSpan(StageMSoD)
	tr.StartSpan("msod.policy:ctx1").End()
	endStore := tr.StartSpan(StageStore)
	endStore.End()
	endMSoD.End()
	tr.StartSpan(StageAudit).End()

	parents := map[string]string{}
	for _, s := range tr.Spans() {
		parents[s.Name] = s.Parent
	}
	want := map[string]string{
		StageMSoD:          "",
		"msod.policy:ctx1": StageMSoD,
		StageStore:         StageMSoD,
		StageAudit:         "",
	}
	for name, parent := range want {
		if parents[name] != parent {
			t.Fatalf("span %q parent = %q, want %q (all: %v)", name, parents[name], parent, parents)
		}
	}
}

func TestSeriesParseAndLabelInjection(t *testing.T) {
	s, ok := ParseSeries(`msod_stage_duration_seconds_bucket{stage="cvs",le="0.001"} 42`)
	if !ok || s.Name != "msod_stage_duration_seconds_bucket" ||
		s.Labels != `stage="cvs",le="0.001"` || s.Value != 42 {
		t.Fatalf("parse = %+v, %v", s, ok)
	}
	withShard := s.WithLabel("shard", "a")
	want := `msod_stage_duration_seconds_bucket{stage="cvs",le="0.001",shard="a"} 42`
	if withShard.String() != want {
		t.Fatalf("labelled = %q, want %q", withShard.String(), want)
	}

	plain, ok := ParseSeries("msod_grants_total 7")
	if !ok || plain.Labels != "" || plain.Value != 7 {
		t.Fatalf("plain parse = %+v, %v", plain, ok)
	}
	if got := plain.WithLabel("shard", "b").String(); got != `msod_grants_total{shard="b"} 7` {
		t.Fatalf("plain labelled = %q", got)
	}

	for _, bad := range []string{"", "# HELP x y", "noval", "name{unclosed 3", "name nan-ish x"} {
		if _, ok := ParseSeries(bad); ok {
			t.Fatalf("ParseSeries(%q) accepted", bad)
		}
	}
}

func TestBuildInfoAndUptime(t *testing.T) {
	var buf bytes.Buffer
	WriteBuildInfo(&buf, "msodd")
	WriteUptime(&buf, time.Now().Add(-2*time.Second))
	body := buf.String()
	if !strings.Contains(body, `msod_build_info{component="msodd",`) ||
		!strings.Contains(body, `go_version="go`) {
		t.Fatalf("build info missing labels:\n%s", body)
	}
	found := false
	for _, line := range strings.Split(body, "\n") {
		if s, ok := ParseSeries(line); ok && s.Name == UptimeMetric {
			found = true
			if s.Value < 2 || s.Value > 120 {
				t.Fatalf("uptime = %v, want ~2s", s.Value)
			}
		}
	}
	if !found {
		t.Fatalf("no %s sample in:\n%s", UptimeMetric, body)
	}
}

func TestLoggerAndSpanAttrs(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, "msodd")
	tr := NewTrace(NewTraceID())
	tr.StartSpan(StageCVS).End()
	tr.StartSpan(StageMSoD).End()
	logger.Info("decision", "traceID", string(tr.ID()), SpanAttrs(tr.Spans()))

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	if rec["component"] != "msodd" || rec["traceID"] != string(tr.ID()) {
		t.Fatalf("log record = %v", rec)
	}
	spans, ok := rec["spans"].(map[string]any)
	if !ok {
		t.Fatalf("spans group missing: %v", rec)
	}
	for _, stage := range []string{StageCVS, StageMSoD} {
		if _, ok := spans[stage]; !ok {
			t.Fatalf("span %q missing from breakdown: %v", stage, spans)
		}
	}
}
