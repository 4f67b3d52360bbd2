package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msod/internal/credential"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/trace"
)

// TestOneDecisionOneDescription sends a credential for alice, with no
// body user, and spells its context without the canonical space. The
// CVS resolves alice, so every description of the
// decision — the answer, the explain record, the retained trace, the
// stream event and the decision log line — names alice and the
// canonical context, and explain and trace carry one time.
func TestOneDecisionOneDescription(t *testing.T) {
	const (
		user = "alice"
		ctx  = "Branch=York, Period=p1"
	)
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	soa, err := credential.NewAuthority("bank.example")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	cred, err := soa.IssueRole(user, "Teller", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	broker := inspect.NewBroker(8)
	p, err := pdp.New(pdp.Config{Policy: pol, Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrustAuthority(soa); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	srv := New(p,
		WithEventBroker(broker),
		WithExplainCapacity(8),
		WithTraceStore(trace.NewStore(trace.Config{SampleEvery: 1})),
		WithDecisionLog(obsv.NewLogger(&log, "msodd"), 0))

	req := DecisionRequest{Credentials: []credential.Credential{cred},
		Operation: "HandleCash", Target: "till", Context: "Branch=York,Period=p1", RequestID: "one-1"}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(body)))
	var resp DecisionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK || !resp.Allowed {
		t.Fatalf("status %d, %v: %s", w.Code, err, w.Body)
	}
	if resp.User != user {
		t.Errorf("answer names %q, want %q", resp.User, user)
	}

	x, ok := srv.decisions.Get(resp.RequestID)
	if !ok {
		t.Fatal("no explain record")
	}
	if x.User != user || x.Context != ctx {
		t.Errorf("explain record names %q in %q, want %q in %q", x.User, x.Context, user, ctx)
	}
	tr, ok := srv.traceRecord(resp.TraceID)
	if !ok {
		t.Fatal("no retained trace")
	}
	if tr.User != user || tr.Context != ctx {
		t.Errorf("retained trace names %q in %q, want %q in %q", tr.User, tr.Context, user, ctx)
	}
	if !x.Time.Equal(tr.Time) {
		t.Errorf("explain time %v, trace time %v: want one time", x.Time, tr.Time)
	}
	ev, ok := broker.LastMatch(func(inspect.DecisionEvent) bool { return true })
	if !ok {
		t.Fatal("no event published")
	}
	if ev.User != user || ev.Context != ctx {
		t.Errorf("event names %q in %q, want %q in %q", ev.User, ev.Context, user, ctx)
	}
	var line struct{ Msg, User, Context string }
	for _, raw := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("log line %q: %v", raw, err)
		}
		if line.Msg == "decision" {
			break
		}
	}
	if line.Msg != "decision" || line.User != user || line.Context != ctx {
		t.Errorf("decision log line %+v, want %q in %q", line, user, ctx)
	}
}
