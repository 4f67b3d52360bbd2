package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"msod/internal/audit"
	"msod/internal/inspect"
	"msod/internal/pdp"
	"msod/internal/policy"
)

// startInspectServer wires a PDP with an event broker (and optionally a
// trail) into a server, the way msodd does.
func startInspectServer(t *testing.T, opts ...Option) (*httptest.Server, *inspect.Broker) {
	t.Helper()
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	broker := inspect.NewBroker(64)
	p, err := pdp.New(pdp.Config{
		Policy:   pol,
		Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p, append([]Option{WithEventBroker(broker)}, opts...)...))
	t.Cleanup(ts.Close)
	return ts, broker
}

func prepareAndConfirm(t *testing.T, c *Client, ctx string) (prepare, confirm DecisionResponse) {
	t.Helper()
	var err error
	prepare, err = c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !prepare.Allowed {
		t.Fatalf("prepare denied: %+v", prepare)
	}
	confirm, err = c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if confirm.Allowed {
		t.Fatalf("confirm by preparer granted: %+v", confirm)
	}
	return prepare, confirm
}

func TestStateUserEndpoint(t *testing.T) {
	ts, _ := startInspectServer(t)
	c := NewClient(ts.URL, nil)
	prepareAndConfirm(t, c, "TaxOffice=Leeds, taxRefundProcess=p1")

	st, err := c.UserState("c1")
	if err != nil {
		t.Fatal(err)
	}
	if st.User != "c1" || len(st.Records) != 1 {
		t.Fatalf("state = %+v, want one retained record", st)
	}
	var mmep *inspect.ConstraintProgress
	for i := range st.Constraints {
		if st.Constraints[i].Rule == "MMEP[0]" {
			mmep = &st.Constraints[i]
		}
	}
	if mmep == nil {
		t.Fatalf("no MMEP[0] progress in %+v", st.Constraints)
	}
	if mmep.K != 1 || mmep.M != 2 || !mmep.NearLimit {
		t.Errorf("MMEP progress = %+v, want 1 of 2, near limit", mmep)
	}
	if mmep.LastTraceID == "" {
		t.Error("constraint has no last trace ID despite broker-retained events")
	}

	// Unknown users answer an empty state, not an error.
	empty, err := c.UserState("nobody")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Records) != 0 || len(empty.Constraints) != 0 {
		t.Errorf("unknown user state = %+v", empty)
	}
}

func TestStateContextEndpoint(t *testing.T) {
	ts, _ := startInspectServer(t)
	c := NewClient(ts.URL, nil)
	prepareAndConfirm(t, c, "TaxOffice=Leeds, taxRefundProcess=p1")

	st, err := c.ContextState("TaxOffice=*, taxRefundProcess=*")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Instances) != 1 || len(st.Users) != 1 || st.Users[0].User != "c1" {
		t.Fatalf("context state = %+v", st)
	}

	// A malformed pattern is a 400, surfaced as a typed APIError.
	_, err = c.ContextState("not a pattern")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("bad pattern error = %v", err)
	}
}

func TestEventsStreamDeliversDecisions(t *testing.T) {
	ts, _ := startInspectServer(t)
	c := NewClient(ts.URL, nil)
	_, confirm := prepareAndConfirm(t, c, "TaxOffice=Leeds, taxRefundProcess=p1")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var events []inspect.DecisionEvent
	errDone := errors.New("done")
	err := c.FollowEvents(ctx, FollowEventsOptions{Replay: 10}, func(ev inspect.DecisionEvent) error {
		events = append(events, ev)
		if len(events) == 2 {
			return errDone
		}
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("FollowEvents = %v", err)
	}
	if events[0].Effect != inspect.OutcomeGrant || events[1].Effect != inspect.OutcomeDeny {
		t.Fatalf("replayed effects = %s, %s", events[0].Effect, events[1].Effect)
	}
	deny := events[1]
	if deny.User != "c1" || deny.Stage != "msod" || !strings.Contains(deny.Reason, "MMEP") {
		t.Errorf("deny event = %+v", deny)
	}
	// The streamed trace ID is the same one the decision response (and
	// therefore the audit record) carries.
	if deny.TraceID == "" || deny.TraceID != confirm.TraceID {
		t.Errorf("deny trace = %q, response trace = %q", deny.TraceID, confirm.TraceID)
	}
}

func TestEventsStreamFilters(t *testing.T) {
	ts, _ := startInspectServer(t)
	c := NewClient(ts.URL, nil)
	prepareAndConfirm(t, c, "TaxOffice=Leeds, taxRefundProcess=p1")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	errDone := errors.New("done")
	var got []inspect.DecisionEvent
	err := c.FollowEvents(ctx, FollowEventsOptions{Outcome: "deny", Replay: 10}, func(ev inspect.DecisionEvent) error {
		got = append(got, ev)
		return errDone
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("FollowEvents = %v", err)
	}
	if len(got) != 1 || got[0].Effect != inspect.OutcomeDeny {
		t.Fatalf("filtered events = %+v", got)
	}

	// Invalid filters are rejected before the stream starts.
	err = c.FollowEvents(ctx, FollowEventsOptions{Outcome: "bogus"}, func(inspect.DecisionEvent) error { return nil })
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("bogus outcome error = %v", err)
	}
}

// TestFollowEventsReadsAnEventOfAnyLength: an RBAC denial whose target
// is 300,000 '<' is an event line of megabytes once '<' is escaped.
// FollowEvents delivers it whole, and the ordinary decision after it
// too. The long request is posted as raw bytes: Client.Decision would
// escape it past the shard's 1 MiB body cap.
func TestFollowEventsReadsAnEventOfAnyLength(t *testing.T) {
	ts, _ := startInspectServer(t)
	long := strings.Repeat("<", 300_000)
	body := `{"user":"c1","roles":["Clerk"],"operation":"prepareCheck","target":"` + long +
		`","context":"TaxOffice=Leeds, taxRefundProcess=p1"}`
	resp, err := http.Post(ts.URL+DecisionPath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	answer, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(answer), `"allowed":false`) {
		t.Fatalf("the long request = %d %.200s, want a 200 denial", resp.StatusCode, answer)
	}
	c := NewClient(ts.URL, nil)
	prepareAndConfirm(t, c, "TaxOffice=Leeds, taxRefundProcess=p2")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got []inspect.DecisionEvent
	errDone := errors.New("done")
	err = c.FollowEvents(ctx, FollowEventsOptions{Replay: 10}, func(ev inspect.DecisionEvent) error {
		got = append(got, ev)
		if len(got) == 2 {
			return errDone
		}
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("FollowEvents = %v after %d events, want both delivered", err, len(got))
	}
	if got[0].Effect != inspect.OutcomeDeny || got[0].Stage != "rbac" || got[0].Target != long {
		t.Errorf("the long event: %s at stage %s with a target of %d bytes, want the RBAC denial with its whole target",
			got[0].Effect, got[0].Stage, len(got[0].Target))
	}
	if got[1].Effect != inspect.OutcomeGrant || got[1].Context != "TaxOffice=Leeds, taxRefundProcess=p2" {
		t.Errorf("the event after it = %+v, want the ordinary grant", got[1])
	}
}

// An event's user, target and context reach /v1/events with their
// bytes as sent, not HTML-escaped, and FollowEvents reads them back.
func TestEventsStreamWritesMarkupAsSent(t *testing.T) {
	ts, broker := startInspectServer(t)
	want := inspect.DecisionEvent{
		Time: time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC),
		User: "a<b&c>", Roles: []string{"Clerk"}, Operation: "prepareCheck",
		Target: "<t>", Context: "TaxOffice=<&>, taxRefundProcess=p1", Effect: inspect.OutcomeGrant,
	}
	want.Seq = broker.Publish(want)

	resp, err := http.Get(ts.URL + EventsPath + "?replay=1")
	if err != nil {
		t.Fatal(err)
	}
	frames := bufio.NewReader(resp.Body)
	line, err := frames.ReadString('\n')
	for err == nil && !strings.HasPrefix(line, "data: ") {
		line, err = frames.ReadString('\n')
	}
	resp.Body.Close()
	for _, member := range []string{`"user":"a<b&c>"`, `"target":"<t>"`, `"ctx":"TaxOffice=<&>, taxRefundProcess=p1"`} {
		if !strings.Contains(line, member) {
			t.Errorf("the event's frame %q (read error %v) does not carry %s", line, err, member)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got inspect.DecisionEvent
	errDone := errors.New("done")
	err = NewClient(ts.URL, nil).FollowEvents(ctx, FollowEventsOptions{Replay: 1}, func(ev inspect.DecisionEvent) error {
		got = ev
		return errDone
	})
	if !errors.Is(err, errDone) || !reflect.DeepEqual(got, want) {
		t.Errorf("FollowEvents = %v with %+v, want %+v", err, got, want)
	}
}

// TestEventsStreamResume: /v1/events honours Last-Event-ID — the
// stream restarts just after the client's last seen sequence number,
// each event carries its "id:" line, and a resume point that has left
// the ring is refused with 410 Gone rather than an amnesiac stream.
func TestEventsStreamResume(t *testing.T) {
	ts, broker := startInspectServer(t)
	c := NewClient(ts.URL, nil)
	prepareAndConfirm(t, c, "TaxOffice=Leeds, taxRefundProcess=p1") // seq 1 grant, seq 2 deny

	req, err := http.NewRequest(http.MethodGet, ts.URL+EventsPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(LastEventIDHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d", resp.StatusCode)
	}
	// The first frame must be seq 2 (the event after the resume point),
	// preceded by its id: line.
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	frame := string(buf[:n])
	if !strings.HasPrefix(frame, "id: 2\n") {
		t.Errorf("resumed frame does not lead with id: 2:\n%s", frame)
	}
	if !strings.Contains(frame, `"seq":2`) || strings.Contains(frame, `"seq":1`) {
		t.Errorf("resumed frame = %q, want only the event after seq 1", frame)
	}

	// A malformed resume header is a 400, not a guess.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+EventsPath, nil)
	req2.Header.Set(LastEventIDHeader, "not-a-seq")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed Last-Event-ID status = %d, want 400", resp2.StatusCode)
	}

	// A resume point ahead of the broker (a previous incarnation's seq)
	// is a 410: the client must resync, not stream over the hole.
	req3, _ := http.NewRequest(http.MethodGet, ts.URL+EventsPath, nil)
	req3.Header.Set(LastEventIDHeader, fmt.Sprintf("%d", lastSeq(broker)+100))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusGone {
		t.Errorf("gapped resume status = %d, want 410", resp3.StatusCode)
	}
}

// sseEvent writes one complete SSE frame (with id: line) and flushes.
func sseEvent(t *testing.T, w http.ResponseWriter, seq uint64) {
	t.Helper()
	if err := writeSSE(w, inspect.DecisionEvent{Seq: seq, User: fmt.Sprintf("u%d", seq)}); err != nil {
		t.Errorf("writeSSE: %v", err)
	}
	w.(http.Flusher).Flush()
}

// TestFollowEventsReconnectsWithResume: FollowEvents survives a
// server-side close by reconnecting with Last-Event-ID set to the last
// sequence it delivered — the consumer sees every event exactly once
// across the break.
func TestFollowEventsReconnectsWithResume(t *testing.T) {
	var conns int
	resumeHeaders := make([]string, 0, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns++
		resumeHeaders = append(resumeHeaders, r.Header.Get(LastEventIDHeader))
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		switch conns {
		case 1:
			for seq := uint64(1); seq <= 3; seq++ {
				sseEvent(t, w, seq)
			}
			// Return: the server drops the stream mid-flight.
		default:
			for seq := uint64(4); seq <= 5; seq++ {
				sseEvent(t, w, seq)
			}
			<-r.Context().Done()
		}
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var seqs []uint64
	errDone := errors.New("done")
	err := c.FollowEvents(ctx, FollowEventsOptions{},
		func(ev inspect.DecisionEvent) error {
			seqs = append(seqs, ev.Seq)
			if ev.Seq == 5 {
				return errDone
			}
			return nil
		})
	if !errors.Is(err, errDone) {
		t.Fatalf("FollowEvents = %v", err)
	}
	if len(seqs) != 5 {
		t.Fatalf("delivered seqs = %v, want 1..5 exactly once", seqs)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("delivered seqs = %v, want 1..5 in order", seqs)
		}
	}
	if len(resumeHeaders) < 2 || resumeHeaders[0] != "" || resumeHeaders[1] != "3" {
		t.Errorf("resume headers = %q, want first connection bare, second resuming after 3", resumeHeaders)
	}
}

// TestFollowEventsSurfacesGap: when the reconnect's resume point has
// rotated out server-side (410), FollowEvents stops with ErrEventGap
// instead of silently rejoining live with a hole in the stream.
func TestFollowEventsSurfacesGap(t *testing.T) {
	var conns int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns++
		if conns == 1 {
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			sseEvent(t, w, 7)
			return // dropped; the client will reconnect with Last-Event-ID: 7
		}
		WriteJSON(w, http.StatusGone, errorResponse{"resume after seq 7 is no longer retained"})
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.FollowEvents(ctx, FollowEventsOptions{},
		func(ev inspect.DecisionEvent) error { return nil })
	if !errors.Is(err, ErrEventGap) {
		t.Fatalf("FollowEvents after 410 = %v, want ErrEventGap", err)
	}
}

// TestFollowEventsRetriesA5xx: a 5xx answer is no verdict on the
// stream. FollowEvents dials again and resumes after the last sequence
// number it delivered, and delivers each event once.
func TestFollowEventsRetriesA5xx(t *testing.T) {
	var conns int
	var resumeHeaders []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns++
		resumeHeaders = append(resumeHeaders, r.Header.Get(LastEventIDHeader))
		switch conns {
		case 1:
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			sseEvent(t, w, 1)
			sseEvent(t, w, 2)
		case 2:
			WriteJSON(w, http.StatusServiceUnavailable, errorResponse{"restarting"})
		default:
			w.Header().Set("Content-Type", "text/event-stream")
			w.WriteHeader(http.StatusOK)
			sseEvent(t, w, 3)
			<-r.Context().Done()
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var seqs []uint64
	errDone := errors.New("done")
	err := NewClient(ts.URL, nil).FollowEvents(ctx, FollowEventsOptions{}, func(ev inspect.DecisionEvent) error {
		seqs = append(seqs, ev.Seq)
		if ev.Seq == 3 {
			return errDone
		}
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("FollowEvents = %v, want it past the 503", err)
	}
	if fmt.Sprint(seqs) != "[1 2 3]" {
		t.Errorf("delivered seqs = %v, want 1..3 exactly once", seqs)
	}
	if fmt.Sprintf("%q", resumeHeaders) != `["" "2" "2"]` {
		t.Errorf("resume headers = %q, want the first connection bare and both others resuming after 2", resumeHeaders)
	}
}

func TestMetricsIntrospectionGauges(t *testing.T) {
	ts, _ := startInspectServer(t)
	c := NewClient(ts.URL, nil)
	prepareAndConfirm(t, c, "TaxOffice=Leeds, taxRefundProcess=p1")

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"msod_context_instances_open 1",
		"msod_constraints_tracked",
		"msod_constraints_near_limit 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSentinelFailClosedRefusesDecisions drives the full tamper path: a
// PDP writing a real trail, a sentinel over the same directory, a
// mid-run tamper, and the server flipping to 503s.
func TestSentinelFailClosedRefusesDecisions(t *testing.T) {
	dir := t.TempDir()
	key := []byte("server-test-trail-key")
	trail, err := audit.NewWriter(dir, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer trail.Close()

	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol, Trail: trail})
	if err != nil {
		t.Fatal(err)
	}
	sentinel, err := inspect.NewSentinel(inspect.SentinelConfig{Dir: dir, Key: key, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sentinel.Stop()
	ts := httptest.NewServer(New(p, WithSentinel(sentinel, true)))
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	req := DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	}
	if _, err := c.Decision(req); err != nil {
		t.Fatalf("decision before tamper: %v", err)
	}
	if err := sentinel.CheckNow(); err != nil {
		t.Fatalf("clean check: %v", err)
	}

	// Tamper with an entry appended after the last check.
	req2 := req
	req2.User, req2.Roles = "m1", []string{"Manager"}
	req2.Operation, req2.Target = "approve/disapproveCheck", "http://www.myTaxOffice.com/Check"
	if _, err := c.Decision(req2); err != nil {
		t.Fatal(err)
	}
	segs, _ := audit.Segments(dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	data, _ := os.ReadFile(path)
	mutated := strings.Replace(string(data), `"user":"m1"`, `"user":"mx"`, 1)
	if mutated == string(data) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sentinel.CheckNow(); !errors.Is(err, audit.ErrTampered) {
		t.Fatalf("CheckNow after tamper = %v", err)
	}

	// Decisions AND advisories now fail closed with an explicit 503.
	_, err = c.Decision(req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("decision after tamper = %v, want 503", err)
	}
	if !strings.Contains(apiErr.Message, "tamper") {
		t.Errorf("503 message = %q", apiErr.Message)
	}
	if _, err := c.Advice(req); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("advice after tamper = %v, want 503", err)
	}

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		inspect.TamperDetectedMetric + " 1",
		"msod_sentinel_refusals_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSentinelOpenKeepsServing: without fail-closed the alarm is
// observable but decisions continue (monitor-only deployments).
func TestSentinelOpenKeepsServing(t *testing.T) {
	dir := t.TempDir()
	key := []byte("server-test-trail-key")
	trail, err := audit.NewWriter(dir, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer trail.Close()
	pol, _ := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	p, err := pdp.New(pdp.Config{Policy: pol, Trail: trail})
	if err != nil {
		t.Fatal(err)
	}
	sentinel, err := inspect.NewSentinel(inspect.SentinelConfig{Dir: dir, Key: key, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sentinel.Stop()
	ts := httptest.NewServer(New(p, WithSentinel(sentinel, false)))
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	req := DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: fmt.Sprintf("TaxOffice=Leeds, taxRefundProcess=p%d", 1),
	}
	if _, err := c.Decision(req); err != nil {
		t.Fatal(err)
	}
	segs, _ := audit.Segments(dir)
	data, _ := os.ReadFile(filepath.Join(dir, segs[0]))
	mutated := strings.Replace(string(data), `"user":"c1"`, `"user":"cx"`, 1)
	if err := os.WriteFile(filepath.Join(dir, segs[0]), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sentinel.CheckNow(); !errors.Is(err, audit.ErrTampered) {
		t.Fatalf("CheckNow = %v", err)
	}
	// Still serving: fail-open only surfaces the gauge.
	req.Context = "TaxOffice=York, taxRefundProcess=p2"
	if _, err := c.Decision(req); err != nil {
		t.Fatalf("fail-open decision after tamper: %v", err)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), inspect.TamperDetectedMetric+" 1") {
		t.Error("tamper gauge not exported")
	}
}
