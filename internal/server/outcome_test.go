package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/core"
	"msod/internal/credential"
	"msod/internal/explain"
	"msod/internal/fault"
	"msod/internal/fsx"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/trace"
)

// outcomeEnv is one server with every per-decision sink attached and
// readable: SLO, counters and histograms (through /v1/metrics), explain
// ring, trace store sampling every grant, event broker, and a decision
// log at threshold zero.
type outcomeEnv struct {
	t        *testing.T
	srv      *Server
	pdp      *pdp.PDP
	log      bytes.Buffer
	broker   *inspect.Broker
	ffs      *fault.FS         // durable rows only
	trailDir string            // sentinel rows only
	trail    *audit.Writer     // sentinel rows only
	sentinel *inspect.Sentinel // sentinel rows only
	// handed is the explain entry the last decide found in its context
	// (nil when the handler attached none).
	handed core.Explainer
}

type outcomeRow struct {
	name string
	// durable puts the retained ADI on a fault-injecting filesystem;
	// sentinel adds an audit trail and a fail-closed sentinel over it;
	// limit is the admission limit (0: unbounded); shard serves it
	// WithHandoff, as a cluster shard.
	durable, sentinel, shard bool
	limit                    int
	// setup brings the server into the row's starting state; the sinks
	// are snapshotted after it.
	setup    func(e *outcomeEnv)
	advisory bool
	body     string

	status int
	// counters is the exact set of msod_*_total and histogram _count
	// series that move while the request is served, with their deltas.
	// The SLO's view is msod_slo_requests_total (scored) and
	// msod_slo_errors_total{slo="availability"} (scored bad).
	counters map[string]int64
	events   uint64 // events the PDP published to the broker
	// explainKey is the key the explain ring serves the record under
	// ("" : no record, under either candidate key).
	explainKey     string
	explainOutcome string
	// handed: the handler gave decide a pooled explain record. When the
	// decision then errors, the record is filed under its trace ID alone.
	handed bool
	// traced is what the trace store retained ("" sampledFor: nothing).
	traced tracedAs
	// The one decision log line: level, message and the names of its
	// span group (nil: no line).
	logLevel, logMsg string
	logSpans         []string
	// degraded: the request latched read-only mode.
	degraded bool
}

// tracedAs is the part of a retained trace.Record the handler decides.
type tracedAs struct {
	SampledFor, Outcome, RequestID string
	Advisory                       bool
}

const (
	outcomeTraceID = "0af7651916cd43dd8448eb211c80319c"
	outcomeRID     = "rid-1"
)

func tellerBody(user, period, rid string) string {
	b, _ := json.Marshal(DecisionRequest{User: user, Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till",
		Context: "Branch=York, Period=" + period, RequestID: rid})
	return string(b)
}

// served are the series every decided request moves whatever its
// outcome: the latency histogram and the cvs stage.
func served(extra map[string]int64) map[string]int64 {
	out := map[string]int64{
		"msod_decision_duration_seconds_count":           1,
		`msod_stage_duration_seconds_count{stage="cvs"}`: 1,
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// TestDecisionOutcomes pins, for every way a decision or advice request
// can end, the status it answers and what each sink saw of it. It is the
// table a change to serveDecision is read against: a cell that moves is
// a behaviour change and has to be meant.
func TestDecisionOutcomes(t *testing.T) {
	evaluated := func(extra map[string]int64) map[string]int64 {
		out := served(map[string]int64{
			`msod_stage_duration_seconds_count{stage="rbac"}`: 1,
			`msod_stage_duration_seconds_count{stage="msod"}`: 1,
			"msod_slo_requests_total":                         1,
		})
		for k, v := range extra {
			out[k] = v
		}
		return out
	}
	soa, err := credential.NewAuthority("bank.example")
	if err != nil {
		t.Fatal(err)
	}
	var twoCreds []credential.Credential
	for _, user := range []string{"alice", "bob"} {
		c, err := soa.IssueRole(user, "Teller", time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		twoCreds = append(twoCreds, c)
	}
	twoUsers, err := json.Marshal(DecisionRequest{Credentials: twoCreds, Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"})
	if err != nil {
		t.Fatal(err)
	}
	steered, err := json.Marshal(DecisionRequest{User: "bob", Credentials: twoCreds[:1], Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"})
	if err != nil {
		t.Fatal(err)
	}
	rows := []outcomeRow{
		{
			name:   "MMER grant",
			body:   tellerBody("alice", "p1", outcomeRID),
			status: http.StatusOK,
			counters: evaluated(map[string]int64{
				"msod_decisions_total":                             1,
				"msod_grants_total":                                1,
				"msod_adi_records_written_total":                   1,
				`msod_stage_duration_seconds_count{stage="store"}`: 1,
				`msod_trace_sampled_total{reason="sampled"}`:       1,
			}),
			events:     1,
			handed:     true,
			explainKey: outcomeRID, explainOutcome: explain.OutcomeGrant,
			traced:   tracedAs{SampledFor: trace.ReasonSampled, Outcome: "grant", RequestID: outcomeRID},
			logLevel: "INFO", logMsg: "decision", logSpans: []string{"cvs", "msod", "msod.policy:Branch=*, Period=!", "rbac", "store"},
		},
		{
			name:   "MSoD deny",
			setup:  func(e *outcomeEnv) { e.serve(tellerBody("alice", "p1", ""), false, "") },
			body:   `{"user":"alice","roles":["Auditor"],"operation":"Audit","target":"ledger","context":"Branch=Leeds, Period=p1"}`,
			status: http.StatusOK,
			counters: evaluated(map[string]int64{
				"msod_decisions_total":                       1,
				"msod_denied_msod_total":                     1,
				`msod_trace_sampled_total{reason="refusal"}`: 1,
			}),
			events:     1,
			handed:     true,
			explainKey: outcomeTraceID, explainOutcome: explain.OutcomeDeny,
			traced:   tracedAs{SampledFor: trace.ReasonRefusal, Outcome: "deny", RequestID: outcomeTraceID},
			logLevel: "INFO", logMsg: "decision", logSpans: []string{"cvs", "msod", "msod.policy:Branch=*, Period=!", "rbac"},
		},
		{
			name:   "RBAC deny",
			body:   `{"user":"alice","roles":["Teller"],"operation":"Audit","target":"ledger","context":"Branch=York, Period=p1"}`,
			status: http.StatusOK,
			counters: served(map[string]int64{
				`msod_stage_duration_seconds_count{stage="rbac"}`: 1,
				"msod_slo_requests_total":                         1,
				"msod_decisions_total":                            1,
				"msod_denied_rbac_total":                          1,
				`msod_trace_sampled_total{reason="refusal"}`:      1,
			}),
			events:     1,
			handed:     true,
			explainKey: outcomeTraceID, explainOutcome: explain.OutcomeDeny,
			traced:   tracedAs{SampledFor: trace.ReasonRefusal, Outcome: "deny", RequestID: outcomeTraceID},
			logLevel: "INFO", logMsg: "decision", logSpans: []string{"cvs", "rbac"},
		},
		{
			name:     "advisory grant",
			advisory: true,
			body:     tellerBody("alice", "p1", outcomeRID), // the RequestID is ignored on advice
			status:   http.StatusOK,
			counters: evaluated(map[string]int64{
				"msod_advisories_total":                      1,
				`msod_trace_sampled_total{reason="sampled"}`: 1,
			}),
			traced:   tracedAs{SampledFor: trace.ReasonSampled, Outcome: "grant", Advisory: true},
			logLevel: "INFO", logMsg: "decision", logSpans: []string{"cvs", "msod", "msod.policy:Branch=*, Period=!", "rbac"},
		},
		{
			name:   "idempotent replay",
			setup:  func(e *outcomeEnv) { e.serve(tellerBody("alice", "p1", outcomeRID), false, obsv.NewTraceID()) },
			body:   tellerBody("alice", "p1", outcomeRID),
			status: http.StatusOK,
			counters: map[string]int64{
				"msod_decision_replays_total": 1,
				"msod_slo_requests_total":     1,
			},
			// The committed execution's record stays the queryable one.
			explainKey: outcomeRID, explainOutcome: explain.OutcomeGrant,
		},
		{
			name:   "decode error 400",
			body:   `{"user":"alice"} trailing`,
			status: http.StatusBadRequest,
			counters: map[string]int64{
				"msod_request_errors_total": 1,
			},
		},
		{
			name:   "context error 400",
			body:   `{"user":"alice","roles":["Teller"],"operation":"HandleCash","target":"till","context":"not a context"}`,
			status: http.StatusBadRequest,
			counters: map[string]int64{
				"msod_request_errors_total": 1,
			},
		},
		{
			name:   "decide error 400 (no subject)",
			body:   `{"roles":["Teller"],"operation":"HandleCash","target":"till","context":"Branch=York, Period=p1"}`,
			status: http.StatusBadRequest,
			counters: served(map[string]int64{
				"msod_request_errors_total":                1,
				`msod_trace_sampled_total{reason="error"}`: 1,
				// Not msod_slo_requests_total: a caller's error is not an
				// availability event, and like the other 400s is not scored.
			}),
			handed:   true,
			traced:   tracedAs{SampledFor: trace.ReasonError, Outcome: "error", RequestID: outcomeTraceID},
			logLevel: "WARN", logMsg: "decision error", logSpans: []string{"cvs"},
		},
		{
			// Valid credentials naming two users are the caller's
			// mistake like a missing subject, not the shard's failure:
			// 400, unscored. It was a 500 charged to availability.
			name:   "decide error 400 (credentials for distinct users)",
			setup:  func(e *outcomeEnv) { e.trust(soa) },
			body:   string(twoUsers),
			status: http.StatusBadRequest,
			counters: served(map[string]int64{
				"msod_request_errors_total":                1,
				`msod_trace_sampled_total{reason="error"}`: 1,
			}),
			handed:   true,
			traced:   tracedAs{SampledFor: trace.ReasonError, Outcome: "error", RequestID: outcomeTraceID},
			logLevel: "WARN", logMsg: "decision error", logSpans: []string{"cvs"},
		},
		{
			// A cluster shard decides only for the subject it was routed
			// on: bob's request carrying alice's credential is refused
			// before RBAC and the engine run, a caller's error, unscored.
			name:   "decide error 421 (steered subject)",
			shard:  true,
			setup:  func(e *outcomeEnv) { e.trust(soa) },
			body:   string(steered),
			status: http.StatusMisdirectedRequest,
			counters: served(map[string]int64{
				"msod_request_errors_total":                1,
				`msod_trace_sampled_total{reason="error"}`: 1,
			}),
			handed:   true,
			traced:   tracedAs{SampledFor: trace.ReasonError, Outcome: "error", RequestID: outcomeTraceID},
			logLevel: "WARN", logMsg: "decision error", logSpans: []string{"cvs"},
		},
		{
			name:    "decide error 503 (WAL write failure)",
			durable: true,
			setup:   func(e *outcomeEnv) { e.ffs.InjectAt(e.ffs.Ops()+1, fault.EIO) },
			body:    tellerBody("alice", "p1", outcomeRID),
			status:  http.StatusServiceUnavailable,
			counters: evaluated(map[string]int64{
				"msod_request_errors_total":                        1,
				`msod_slo_errors_total{slo="availability"}`:        1,
				`msod_stage_duration_seconds_count{stage="store"}`: 1,
				`msod_trace_sampled_total{reason="error"}`:         1,
			}),
			handed:   true,
			traced:   tracedAs{SampledFor: trace.ReasonError, Outcome: "error", RequestID: outcomeRID},
			logLevel: "WARN", logMsg: "decision error", logSpans: []string{"cvs", "msod", "msod.policy:Branch=*, Period=!", "rbac", "store", "store.wal"},
			degraded: true,
		},
		{
			name:   "shed",
			limit:  1,
			setup:  func(e *outcomeEnv) { e.holdSlot() },
			body:   tellerBody("alice", "p1", ""),
			status: http.StatusServiceUnavailable,
			counters: map[string]int64{
				"msod_shed_total":                           1,
				"msod_slo_requests_total":                   1,
				`msod_slo_errors_total{slo="availability"}`: 1,
			},
		},
		{
			name:     "tampered fail-closed",
			sentinel: true,
			setup:    func(e *outcomeEnv) { e.tamper() },
			body:     tellerBody("alice", "p1", ""),
			status:   http.StatusServiceUnavailable,
			counters: map[string]int64{
				"msod_sentinel_refusals_total":              1,
				"msod_slo_requests_total":                   1,
				`msod_slo_errors_total{slo="availability"}`: 1,
			},
		},
		{
			name:    "read-only",
			durable: true,
			setup: func(e *outcomeEnv) {
				e.ffs.InjectAt(e.ffs.Ops()+1, fault.EIO)
				if w := e.serve(tellerBody("bob", "p0", ""), false, obsv.NewTraceID()); w.Code != http.StatusServiceUnavailable {
					e.t.Fatalf("latching decision = %d %s", w.Code, w.Body)
				}
			},
			body:   tellerBody("alice", "p1", ""),
			status: http.StatusServiceUnavailable,
			counters: map[string]int64{
				"msod_slo_requests_total":                   1,
				`msod_slo_errors_total{slo="availability"}`: 1,
			},
			degraded: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := newOutcomeEnv(t, row)
			if row.setup != nil {
				row.setup(e)
			}
			before, events := e.scrape(), lastSeq(e.broker)
			e.log.Reset()
			e.handed = nil

			w := e.serve(row.body, row.advisory, outcomeTraceID)
			if row.handed && row.status != http.StatusOK {
				// The sampler keeps every error: the record the engine was
				// handed holds the tree filed under the trace ID alone.
				x, _ := e.handed.(*explain.Entry)
				filed, ok := e.srv.decisions.Trace(outcomeTraceID)
				if x == nil || !ok || x.SampledFor != trace.ReasonError || !reflect.DeepEqual(filed.Decision, x.Decision) {
					t.Errorf("the errored decision's record %+v is not the one filed under its trace ID (%v %+v)", x, ok, filed)
				}
			}
			if w.Code != row.status {
				t.Fatalf("status %d, want %d: %s", w.Code, row.status, w.Body)
			}
			moved := map[string]int64{}
			for name, v := range e.scrape() {
				if d := v - before[name]; d != 0 {
					moved[name] = d
				}
			}
			if !reflect.DeepEqual(moved, row.counters) {
				t.Errorf("series moved:\n got %v\nwant %v", moved, row.counters)
			}
			if got := lastSeq(e.broker) - events; got != row.events {
				t.Errorf("%d events published, want %d", got, row.events)
			}
			for _, key := range []string{outcomeRID, outcomeTraceID} {
				rec, ok := e.srv.decisions.Get(key)
				switch {
				case key != row.explainKey && ok:
					t.Errorf("explain record under %q, want none there", key)
				case key == row.explainKey && !ok:
					t.Errorf("no explain record under %q", key)
				case key == row.explainKey && rec.Outcome != row.explainOutcome:
					t.Errorf("explain outcome %q, want %q", rec.Outcome, row.explainOutcome)
				}
			}
			if row.handed != (e.handed != nil) {
				t.Errorf("decide was handed explain record %p, want handed = %v", e.handed, row.handed)
			}
			rec, kept := e.srv.traceRecord(outcomeTraceID)
			got := tracedAs{SampledFor: rec.SampledFor, Outcome: rec.Outcome, RequestID: rec.RequestID, Advisory: rec.Advisory}
			if kept != (row.traced.SampledFor != "") || got != row.traced {
				t.Errorf("trace kept = %v %+v, want %+v", kept, got, row.traced)
			}
			level, msg, spans := e.decisionLogLine()
			if level != row.logLevel || msg != row.logMsg || !reflect.DeepEqual(spans, row.logSpans) {
				t.Errorf("decision log line = %s %q spans %v, want %s %q spans %v", level, msg, spans, row.logLevel, row.logMsg, row.logSpans)
			}
			if e.srv.Degraded() != row.degraded {
				t.Errorf("degraded = %v, want %v", e.srv.Degraded(), row.degraded)
			}
		})
	}
}

func newOutcomeEnv(t *testing.T, row outcomeRow) *outcomeEnv {
	t.Helper()
	e := &outcomeEnv{t: t, broker: inspect.NewBroker(16)}
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	cfg := pdp.Config{Policy: pol, Observer: func(ev inspect.DecisionEvent) { e.broker.Publish(ev) }}
	opts := []Option{
		WithEventBroker(e.broker),
		WithExplainCapacity(8),
		WithTraceStore(trace.NewStore(trace.Config{SampleEvery: 1})),
		WithSLO(obsv.NewSLO(obsv.SLOConfig{Latency: time.Hour})),
		WithDecisionLog(obsv.NewLogger(&e.log, "msodd"), 0),
	}
	if row.durable {
		e.ffs = fault.NewFS(fsx.OS, 7)
		ds, err := adi.OpenDurableFS(t.TempDir(), []byte("outcome-secret"), true, e.ffs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		cfg.Store = ds
	}
	if row.sentinel {
		e.trailDir = t.TempDir()
		key := []byte("outcome-trail-key")
		e.trail, err = audit.NewWriter(e.trailDir, key, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.trail.Close() })
		cfg.Trail = e.trail
		e.sentinel, err = inspect.NewSentinel(inspect.SentinelConfig{Dir: e.trailDir, Key: key, Interval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.sentinel.Stop)
		opts = append(opts, WithSentinel(e.sentinel, true))
	}
	if row.limit > 0 {
		opts = append(opts, WithAdmissionLimit(row.limit, time.Second))
	}
	if row.shard {
		opts = append(opts, WithHandoff())
	}
	e.pdp, err = pdp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.srv = New(e.pdp, opts...)
	return e
}

// serve runs one request through serveDecision with the real decide,
// noting the explain record the handler put in its context.
func (e *outcomeEnv) serve(body string, advisory bool, traceID obsv.TraceID) *httptest.ResponseRecorder {
	e.t.Helper()
	path, decide := DecisionPath, e.pdp.DecideCtx
	if advisory {
		path, decide = AdvicePath, e.pdp.AdviseCtx
	}
	r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if traceID != "" {
		r.Header.Set(obsv.TraceparentHeader, traceID.Traceparent())
	}
	w := httptest.NewRecorder()
	e.srv.serveDecision(w, r, func(ctx context.Context, req pdp.Request) (pdp.Decision, error) {
		e.handed = core.ExplainerFrom(ctx)
		return decide(ctx, req)
	}, advisory)
	return w
}

// trust has the PDP's CVS trust the authority's credentials.
func (e *outcomeEnv) trust(soa *credential.Authority) {
	e.t.Helper()
	if err := e.pdp.TrustAuthority(soa); err != nil {
		e.t.Fatal(err)
	}
}

// holdSlot occupies the server's one admission slot with a decision
// that does not return until the test ends.
func (e *outcomeEnv) holdSlot() {
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		r := httptest.NewRequest(http.MethodPost, DecisionPath, strings.NewReader(tellerBody("holder", "p9", "")))
		e.srv.serveDecision(httptest.NewRecorder(), r, func(context.Context, pdp.Request) (pdp.Decision, error) {
			close(entered)
			<-release
			return pdp.Decision{}, pdp.ErrNoSubject
		}, false)
	}()
	<-entered
	e.t.Cleanup(func() { close(release); <-done })
}

// tamper decides once, rewrites the trail entry on disk and has the
// sentinel find it.
func (e *outcomeEnv) tamper() {
	e.t.Helper()
	if w := e.serve(tellerBody("mallory", "p0", ""), false, obsv.NewTraceID()); w.Code != http.StatusOK {
		e.t.Fatalf("decision before tamper = %d %s", w.Code, w.Body)
	}
	segs, err := audit.Segments(e.trailDir)
	if err != nil || len(segs) == 0 {
		e.t.Fatalf("trail segments: %v %v", segs, err)
	}
	path := filepath.Join(e.trailDir, segs[len(segs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		e.t.Fatal(err)
	}
	mutated := bytes.Replace(data, []byte(`"user":"mallory"`), []byte(`"user":"mallorx"`), 1)
	if bytes.Equal(mutated, data) {
		e.t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		e.t.Fatal(err)
	}
	if err := e.sentinel.CheckNow(); err == nil {
		e.t.Fatal("sentinel did not detect the tampering")
	}
}

var outcomeSeries = regexp.MustCompile(`^(msod_[a-z_]+_total(?:\{[^}]*\})?|msod_decision_duration_seconds_count|msod_stage_duration_seconds_count\{[^}]*\}) (\d+)$`)

// scrape reads every counter and the decision histograms' counts off
// /v1/metrics.
func (e *outcomeEnv) scrape() map[string]int64 {
	e.t.Helper()
	w := httptest.NewRecorder()
	e.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, MetricsPath, nil))
	out := map[string]int64{}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if m := outcomeSeries.FindStringSubmatch(line); m != nil {
			n, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				e.t.Fatalf("%q: %v", line, err)
			}
			out[m[1]] = n
		}
	}
	return out
}

// decisionLogLine returns the one per-decision line logged since the
// log was reset (the read-only latch logs a line of its own, skipped
// here), or zero values when there is none.
func (e *outcomeEnv) decisionLogLine() (level, msg string, spans []string) {
	e.t.Helper()
	dec := json.NewDecoder(bytes.NewReader(e.log.Bytes()))
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			e.t.Fatalf("log: %v\n%s", err, e.log.Bytes())
		}
		m, _ := line["msg"].(string)
		if m != "decision" && m != "decision error" {
			continue
		}
		if msg != "" {
			e.t.Fatalf("more than one decision log line:\n%s", e.log.Bytes())
		}
		level, _ = line["level"].(string)
		msg = m
		group, _ := line["spans"].(map[string]any)
		for name := range group {
			spans = append(spans, name)
		}
		sort.Strings(spans)
	}
	return level, msg, spans
}

// lastSeq is the sequence number of the last event b published, as the
// newest retained event carries it; 0 before the first.
func lastSeq(b *inspect.Broker) uint64 {
	ev, _ := b.LastMatch(func(inspect.DecisionEvent) bool { return true })
	return ev.Seq
}
