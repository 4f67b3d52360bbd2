package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/pdp"
	"msod/internal/policy"
)

// TestDecisionIdempotentReplay: the same RequestID decides once; the
// duplicate replays the committed response and writes no second ADI
// record.
func TestDecisionIdempotentReplay(t *testing.T) {
	ts, p := startServer(t)
	c := NewClient(ts.URL, nil)
	req := DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context:   "TaxOffice=Leeds, taxRefundProcess=p1",
		RequestID: "retry-1",
	}
	first, err := c.Decision(req)
	if err != nil || !first.Allowed {
		t.Fatalf("first decision = %+v, %v", first, err)
	}
	if first.Recorded != 1 {
		t.Fatalf("first decision recorded %d ADI records", first.Recorded)
	}
	second, err := c.Decision(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Errorf("replay = %+v, want the committed response %+v", second, first)
	}
	if n := p.Store().Len(); n != 1 {
		t.Errorf("retained ADI has %d records after replay, want 1", n)
	}

	// A different ID is a different decision: it re-executes and
	// records its own ADI history.
	req.RequestID = "retry-2"
	if _, err := c.Decision(req); err != nil {
		t.Fatal(err)
	}
	if n := p.Store().Len(); n != 2 {
		t.Errorf("retained ADI has %d records after a fresh RequestID, want 2", n)
	}
}

// TestDecisionIdempotencyConcurrent: concurrent duplicates of one
// RequestID commit exactly once; every caller sees the same response.
func TestDecisionIdempotencyConcurrent(t *testing.T) {
	ts, p := startServer(t)
	req := DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context:   "TaxOffice=Leeds, taxRefundProcess=p1",
		RequestID: "burst-1",
	}
	const n = 8
	responses := make([]DecisionResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := NewClient(ts.URL, nil).Decision(req)
			if err != nil {
				t.Error(err)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(responses[i], responses[0]) {
			t.Fatalf("response %d = %+v differs from %+v", i, responses[i], responses[0])
		}
	}
	if n := p.Store().Len(); n != 1 {
		t.Errorf("retained ADI has %d records after %d duplicates, want 1", n, n)
	}
}

// TestDecisionIdempotencyContention: several requests wait on an
// in-flight RequestID whose attempt fails before committing. Exactly one
// of them re-executes; every other replays that commit, byte for byte.
// The waiters are given a moment to queue behind the failing attempt;
// the assertions hold however many of them made it in time.
func TestDecisionIdempotencyContention(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	body, err := json.Marshal(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context:   "TaxOffice=Leeds, taxRefundProcess=p1",
		RequestID: "contended",
	})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(decide func(context.Context, pdp.Request) (pdp.Decision, error)) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.serveDecision(w, httptest.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(body)), decide, false)
		return w
	}
	var executions atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	decide := func(ctx context.Context, req pdp.Request) (pdp.Decision, error) {
		if executions.Add(1) == 1 {
			close(started)
			<-release
			return pdp.Decision{}, errors.New("the first attempt fails before committing")
		}
		return p.DecideCtx(ctx, req)
	}

	failed := make(chan *httptest.ResponseRecorder, 1)
	go func() { failed <- serve(decide) }()
	<-started
	const waiters = 6
	answers := make(chan *httptest.ResponseRecorder, waiters)
	for i := 0; i < waiters; i++ {
		go func() { answers <- serve(decide) }()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)

	if w := <-failed; w.Code == http.StatusOK {
		t.Fatalf("the failing attempt answered 200: %s", w.Body.Bytes())
	}
	var committed []byte
	for i := 0; i < waiters; i++ {
		w := <-answers
		if w.Code != http.StatusOK {
			t.Fatalf("waiter answered %d: %s", w.Code, w.Body.Bytes())
		}
		if committed == nil {
			committed = w.Body.Bytes()
		} else if !bytes.Equal(w.Body.Bytes(), committed) {
			t.Fatalf("waiter answered %s, another %s", w.Body.Bytes(), committed)
		}
	}
	if n := executions.Load(); n != 2 {
		t.Fatalf("decided %d times, want 2: the failed attempt and one re-execution", n)
	}
	if n := s.metrics.idempotentReplays.Load(); n != waiters-1 {
		t.Fatalf("%d replays, want %d", n, waiters-1)
	}
	if n := p.Store().Len(); n != 1 {
		t.Fatalf("retained ADI has %d records, want the one commit's 1", n)
	}
}

// TestIdemCacheOwnership: a failed attempt releases its ID for
// re-execution; committed IDs are evicted FIFO past the cache bound.
func TestIdemCacheOwnership(t *testing.T) {
	c := newIdemCache(2)
	if _, replay := c.begin("a"); replay {
		t.Fatal("fresh ID replayed")
	}
	// Failure releases the ID: the retry owns execution again.
	c.finish("a", nil)
	if _, replay := c.begin("a"); replay {
		t.Fatal("released ID replayed")
	}
	c.finish("a", &DecisionResponse{User: "a"})
	if resp, replay := c.begin("a"); !replay || resp.User != "a" {
		t.Fatalf("committed ID begin = %+v, %v", resp, replay)
	}
	// Two more commits evict "a" (max 2, FIFO).
	for _, id := range []string{"b", "c"} {
		if _, replay := c.begin(id); replay {
			t.Fatalf("fresh ID %q replayed", id)
		}
		c.finish(id, &DecisionResponse{User: id})
	}
	if _, replay := c.begin("a"); replay {
		t.Fatal("evicted ID still replayed")
	}
	c.finish("a", nil)
	if resp, replay := c.begin("c"); !replay || resp.User != "c" {
		t.Fatalf("retained ID begin = %+v, %v", resp, replay)
	}
}

// TestClientHealthStatusBeforeBody: a non-2xx health answer yields a
// typed *APIError even when the body is empty or not JSON.
func TestClientHealthStatusBeforeBody(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		body   string
	}{
		{"empty body", http.StatusInternalServerError, ""},
		{"non-json body", http.StatusServiceUnavailable, "<html>gateway timeout</html>"},
		{"json status body", http.StatusServiceUnavailable, `{"status":"down"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			t.Cleanup(ts.Close)
			_, err := NewClient(ts.URL, nil).Health()
			apiErr, ok := err.(*APIError)
			if !ok {
				t.Fatalf("err = %v (%T), want *APIError", err, err)
			}
			if apiErr.Status != tc.status {
				t.Errorf("status = %d, want %d", apiErr.Status, tc.status)
			}
		})
	}
}

// TestDecisionPanicReleasesRequestID: a decide that panics (net/http
// recovers it and drops the connection) must not leave its RequestID
// in flight — nothing evicts an in-flight entry, so every retry under
// the same ID, which is exactly what the gateway sends after a
// transport error, would block until its own timeout.
func TestDecisionPanicReleasesRequestID(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	body, err := json.Marshal(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context:   "TaxOffice=Leeds, taxRefundProcess=p1",
		RequestID: "panics-once",
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(body))
	}
	before := len(s.idem.entries)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic did not propagate to net/http")
			}
		}()
		s.serveDecision(httptest.NewRecorder(), post(), func(context.Context, pdp.Request) (pdp.Decision, error) {
			panic("decide blew up")
		}, false)
	}()
	if n := len(s.idem.entries); n != before {
		t.Fatalf("idempotency cache holds %d entries after the panic, want %d", n, before)
	}

	// The retry re-executes and answers; a stranded entry would hang it.
	answered := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.serveDecision(w, post(), p.DecideCtx, false)
		answered <- w
	}()
	select {
	case w := <-answered:
		var resp DecisionResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK || !resp.Allowed {
			t.Fatalf("retry = %d %s (%v)", w.Code, w.Body.Bytes(), err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry under the same RequestID is still waiting on the panicked attempt")
	}
	if n := p.Store().Len(); n != 1 {
		t.Fatalf("retained ADI has %d records, want the retry's 1", n)
	}
	// Committed now: the ID replays instead of deciding a third time.
	w := httptest.NewRecorder()
	s.serveDecision(w, post(), func(context.Context, pdp.Request) (pdp.Decision, error) {
		t.Error("a committed RequestID was decided again")
		return pdp.Decision{}, nil
	}, false)
	if w.Code != http.StatusOK {
		t.Fatalf("replay = %d %s", w.Code, w.Body.Bytes())
	}
}
