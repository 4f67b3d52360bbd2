package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"msod/internal/bctx"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/rbac"
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
	c.finish("a", idemEntry{})
	if _, replay := c.begin("a"); replay {
		t.Fatal("released ID replayed")
	}
	c.finish("a", packAnswer("a", &answer{user: "a"}))
	if e, replay := c.begin("a"); !replay || replayed(t, e, "a").User != "a" {
		t.Fatalf("committed ID begin = %q, %v", e.packed, replay)
	}
	// Two more commits evict "a" (max 2, FIFO).
	for _, id := range []string{"b", "c"} {
		if _, replay := c.begin(id); replay {
			t.Fatalf("fresh ID %q replayed", id)
		}
		c.finish(id, packAnswer(id, &answer{user: id}))
	}
	if _, replay := c.begin("a"); replay {
		t.Fatal("evicted ID still replayed")
	}
	c.finish("a", idemEntry{})
	if e, replay := c.begin("c"); !replay || replayed(t, e, "c").User != "c" {
		t.Fatalf("retained ID begin = %q, %v", e.packed, replay)
	}
}

// replayed is the answer a replay of e under id writes, as the client
// decodes it.
func replayed(t *testing.T, e idemEntry, id string) DecisionResponse {
	t.Helper()
	w := httptest.NewRecorder()
	a := e.answer(id)
	writeAnswer(w, &a)
	var resp DecisionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("replay of %q: %v", e.packed, err)
	}
	return resp
}

// lookup reports whether the cache holds id, and its committed entry,
// which is empty while id is in flight.
func (c *idemCache) lookup(id string) (idemEntry, bool) {
	k := keyOf(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.slot(&k)
	if !ok || s == inFlight {
		return idemEntry{}, ok
	}
	return c.at(s), true
}

// held is how many IDs the cache holds, committed or in flight.
func (c *idemCache) held() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.minted) + len(c.text)
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
	before := s.idem.held()

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
	if n := s.idem.held(); n != before {
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

// TestMalformedContextReleasesRequestID: the claim comes before the
// context is parsed, so a request whose context does not parse holds
// its RequestID while it is refused. The 400 must release it: a
// corrected retry under the same ID executes, and once that commits, a
// retry under the ID is replayed before its context is read, as any
// replay is.
func TestMalformedContextReleasesRequestID(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	serve := func(context string) (int, []byte) {
		body, err := json.Marshal(DecisionRequest{
			User: "c1", Roles: []string{"Clerk"},
			Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
			Context: context, RequestID: "fix-me",
		})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.serveDecision(w, httptest.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(body)), p.DecideCtx, false)
		return w.Code, w.Body.Bytes()
	}
	const malformed, corrected = "TaxOffice=Leeds, taxRefundProcess", "TaxOffice=Leeds, taxRefundProcess=p1"
	if _, err := bctx.Parse(malformed); err == nil {
		t.Fatalf("%q parses", malformed)
	}
	before := s.idem.held()
	if code, body := serve(malformed); code != http.StatusBadRequest || !strings.Contains(string(body), "context: ") {
		t.Fatalf("malformed context = %d %s; want a 400 naming the context", code, body)
	}
	if n := s.idem.held(); n != before {
		t.Fatalf("idempotency cache holds %d entries after the 400, want %d", n, before)
	}

	code, first := serve(corrected)
	var resp DecisionResponse
	if err := json.Unmarshal(first, &resp); err != nil || code != http.StatusOK || !resp.Allowed || resp.Recorded != 1 {
		t.Fatalf("corrected retry = %d %s (%v); want a grant recording 1", code, first, err)
	}
	if code, replayed := serve(malformed); code != http.StatusOK || !bytes.Equal(replayed, first) {
		t.Fatalf("a retry of the committed ID = %d %s; want the committed answer %s", code, replayed, first)
	}
	if n := p.Store().Len(); n != 1 {
		t.Fatalf("retained ADI has %d records, want the corrected retry's 1", n)
	}
}

// TestIdempotencyCacheKeepsNoRequestText: what the idempotency cache
// keeps of a committed answer is the answer, not the request it came
// from. A shard with the decision ring off and no event broker serves
// 4,096 grants, each with a 16 KiB target under its own requestID; the
// cache keeps all 4,096 answers, and the live heap may grow by less
// than 8 MB over it. An answer whose strings point into the request's
// one decoded string keeps that whole string alive: 4,096 × 16 KiB.
func TestIdempotencyCacheKeepsNoRequestText(t *testing.T) {
	target := strings.Repeat("t", 16<<10)
	pol, err := policy.ParseRBACPolicy([]byte(`
<RBACPolicy id="long-target">
  <RoleList><Role value="Teller"/></RoleList>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="` + target + `"/>
  </TargetAccessPolicy>
</RBACPolicy>`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, WithExplainCapacity(-1))
	before := liveHeap()
	for i := 0; i < idemCacheSize; i++ {
		body, err := json.Marshal(DecisionRequest{
			User: "alice", Roles: []string{"Teller"}, Operation: "HandleCash", Target: target,
			Context: "Branch=York", RequestID: fmt.Sprintf("long-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(body)))
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"allowed":true`)) {
			t.Fatalf("request %d = %d %s", i, w.Code, w.Body.Bytes())
		}
	}
	grown := int64(liveHeap()) - int64(before)
	if n := s.idem.held(); n != idemCacheSize {
		t.Fatalf("the cache holds %d answers, want %d", n, idemCacheSize)
	}
	if grown >= 8<<20 {
		t.Fatalf("the live heap grew %.1f MB over %d cached answers, want < 8 MB", float64(grown)/(1<<20), idemCacheSize)
	}
	t.Logf("the live heap grew %.2f MB over %d cached answers", float64(grown)/(1<<20), idemCacheSize)
}

// TestIdemCacheEntryBytes: what the idempotency cache keeps of one
// committed answer on a shard serving gateway-shaped traffic: each
// request under its own requestID of the form the gateway mints (32
// lowercase hex digits) and under a trace ID the shard mints, with the
// decision ring off and no event broker. 4,096 MMER denials repeated in
// one bound instance share one reason, which each entry keeps by
// reference; 4,096 grants that record nothing keep their answers alone.
// The live heap may grow by at most 160 B per denial and 140 B per
// grant: the packed answer, its place in the FIFO and in the index. A
// cache that copies the denial's text into every entry keeps some 340 B
// of each.
func TestIdemCacheEntryBytes(t *testing.T) {
	const period = "Branch=York, Period=2006"
	for _, tc := range []struct {
		name    string
		req     DecisionRequest
		allowed bool
		max     float64
	}{
		{"MMER denial", DecisionRequest{User: "u0042", Roles: []string{"Auditor"}, Operation: "Audit", Target: "ledger", Context: period}, false, 160},
		{"grant", DecisionRequest{User: "u0042", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: "Region=North"}, true, 140},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
			if err != nil {
				t.Fatal(err)
			}
			p, err := pdp.New(pdp.Config{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			s := New(p, WithExplainCapacity(-1))
			serve := func(req DecisionRequest) DecisionResponse {
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(body)))
				var resp DecisionResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
					t.Fatalf("%+v = %d %s", req, w.Code, w.Body.Bytes())
				}
				return resp
			}
			// u0042's Teller grant binds the instance, and a first denial
			// renders its shared text; neither is cached.
			serve(DecisionRequest{User: "u0042", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: period})
			serve(tc.req)
			records := p.Store().Len()
			before := liveHeap()
			for i := 0; i < idemCacheSize; i++ {
				tc.req.RequestID = fmt.Sprintf("%032x", i+1)
				if resp := serve(tc.req); resp.Allowed != tc.allowed {
					t.Fatalf("request %d = %+v", i, resp)
				}
			}
			per := float64(int64(liveHeap())-int64(before)) / idemCacheSize
			if n := s.idem.held(); n != idemCacheSize {
				t.Fatalf("the cache holds %d answers, want %d", n, idemCacheSize)
			}
			if n := p.Store().Len(); n != records {
				t.Fatalf("the retained ADI holds %d records, want %d: it grew beside the cache", n, records)
			}
			if per > tc.max {
				t.Fatalf("the live heap grew %.0f B per cached answer, want at most %.0f B", per, tc.max)
			}
			t.Logf("the live heap grew %.1f B per cached answer", per)
		})
	}
}

// liveHeap is the heap's live bytes after two collections.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIdemCacheReasonByReference: a committed denial keeps the reason
// its answer held, not a copy of it: two denials repeated in one bound
// instance keep the instance's one text, two RBAC denials the PDP's one
// constant, and a replay writes the kept string itself.
func TestIdemCacheReasonByReference(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	serve := func(id, role, op, target string) {
		body, err := json.Marshal(DecisionRequest{User: "u1", Roles: []string{role}, Operation: op, Target: target,
			Context: "Branch=York, Period=2006", RequestID: id})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d %s", id, w.Code, w.Body.Bytes())
		}
	}
	serve("grant", "Teller", "HandleCash", "till")
	const minted = "0af7651916cd43dd8448eb211c80319c"
	for _, pair := range [][2]string{{minted, "msod-2"}, {"rbac-1", "rbac-2"}} {
		for _, id := range pair {
			if strings.HasPrefix(id, "rbac") {
				serve(id, "Auditor", "HandleCash", "till")
			} else {
				serve(id, "Auditor", "Audit", "ledger")
			}
		}
		first, ok1 := s.idem.lookup(pair[0])
		second, ok2 := s.idem.lookup(pair[1])
		if !ok1 || !ok2 || first.reason == "" || first.reason != second.reason {
			t.Fatalf("%s and %s keep reasons %q and %q", pair[0], pair[1], first.reason, second.reason)
		}
		if unsafe.StringData(first.reason) != unsafe.StringData(second.reason) {
			t.Errorf("%s and %s keep copies of %q, want the one string", pair[0], pair[1], first.reason)
		}
		if a := first.answer(pair[0]); unsafe.StringData(a.reason) != unsafe.StringData(first.reason) {
			t.Errorf("a replay of %s writes a copy of its reason", pair[0])
		}
	}
}

// TestIdemCacheAgainstModel drives caches of capacity 1 to 4 with seeded
// random claims, commits and releases, and holds each to a model of a
// map and a FIFO of the committed IDs: a committed ID is replayed until
// it is evicted, oldest first, past the capacity; an ID in flight is
// never evicted; a released one executes again. Every replay must write
// the bytes its first answer wrote. The IDs hold every trap of the two
// ways an ID is filed: a gateway-minted ID beside its uppercase
// spelling, a PEP's 16-byte text ID equal to its bytes, and 31 and 33
// hex digits.
func TestIdemCacheAgainstModel(t *testing.T) {
	const minted = "0af7651916cd43dd8448eb211c80319c"
	raw, err := hex.DecodeString(minted)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{
		minted, strings.ToUpper(minted), string(raw), minted[:31], minted + "0",
		"f" + minted[1:], minted[:16], "retry-1", "\xff",
	}
	reasons := []string{"", "msod: denied by MMER", "no activated role grants the requested permission"}
	for capacity := 1; capacity <= 4; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c := newIdemCache(capacity)
		first := map[string][]byte{} // a committed ID's first answer
		var order []string           // the committed IDs, oldest first
		inFlight := map[string]bool{}
		for step := 0; step < 5000; step++ {
			id := ids[rng.Intn(len(ids))]
			switch {
			case inFlight[id] && rng.Intn(3) == 0:
				c.finish(id, idemEntry{})
				delete(inFlight, id)
			case inFlight[id]:
				a := answer{
					allowed: rng.Intn(2) == 0, phase: "granted", reason: reasons[rng.Intn(len(reasons))],
					user: fmt.Sprint("u", rng.Intn(100)), recorded: rng.Intn(3), traceID: ids[rng.Intn(len(ids))],
				}
				if rng.Intn(4) > 0 {
					a.requestID = id
				}
				w := httptest.NewRecorder()
				writeAnswer(w, &a)
				c.finish(id, packAnswer(id, &a))
				delete(inFlight, id)
				first[id] = w.Body.Bytes()
				if order = append(order, id); len(order) > capacity {
					delete(first, order[0])
					order = order[1:]
				}
			default:
				e, replay := c.begin(id)
				if want, committed := first[id]; replay != committed {
					t.Fatalf("cap %d step %d: begin(%q) replays %v, model %v", capacity, step, id, replay, committed)
				} else if replay {
					w := httptest.NewRecorder()
					a := e.answer(id)
					writeAnswer(w, &a)
					if !bytes.Equal(w.Body.Bytes(), want) {
						t.Fatalf("cap %d step %d: replay of %q\n%s\nfirst answer\n%s", capacity, step, id, w.Body.Bytes(), want)
					}
				} else {
					inFlight[id] = true
				}
			}
			if n, want := c.held(), len(first)+len(inFlight); n != want {
				t.Fatalf("cap %d step %d: the cache holds %d IDs, model %d", capacity, step, n, want)
			}
		}
	}
}

// FuzzIdempotentReplay: a replay answers what the first answer did.
// For any answer and ID, writeAnswer of what the cache packs writes the
// bytes writeAnswer of the answer itself wrote, which are WriteJSON's of
// the DecisionResponse of the same values. A list argument is split at
// NUL and its first element dropped, so "" is a nil list and a string
// without NUL an empty one. The roles are the texts as they are; an
// activated or closed text is the bound name it parses to, else a name
// of one component whose value it is, else the universal context
// (fuzzName), and the DecisionResponse lists the name's text.
func FuzzIdempotentReplay(f *testing.F) {
	const trace = "0af7651916cd43dd8448eb211c80319c"
	add := func(id string, allowed bool, phase, reason, user, roles, activated, closed string, recorded, purged, matched int, traceID, requestID string) {
		f.Add(id, allowed, phase, reason, user, roles, activated, closed, recorded, purged, matched, traceID, requestID)
	}
	add("r1", true, "granted", "", "alice", "\x00Teller", "", "", 1, 0, 1, trace, "r1")
	add("r2", false, "msod", "MSoD denial: <a & b>", "bob", "\x00Auditor\x00Teller", "", "", 0, 0, 2, trace, "r2")
	add("r3", true, "granted", "", "c1", "\x00Clerk", "\x00TaxOffice=Leeds, taxRefundProcess=p1", "\x00a\x00b", 3, 7, 1, trace, "r3")
	// Invalid UTF-8, which the encoder writes as U+FFFD.
	add("\xff", false, "rbac\xc3(", "\xed\xa0\x80", "\xff\xfeal\x00ice", "\x00\xc0\xaf", "", "", 0, 0, 0, trace, "\xff")
	// Trace IDs that are not 32 lowercase hex digits are kept as text.
	add("r4", true, "granted", "", "alice", "\x00Teller", "", "", 1, 0, 1, "0AF7651916CD43DD8448EB211C80319C", "r4")
	add("r5", true, "granted", "", "alice", "\x00Teller", "", "", 1, 0, 1, "0af76519", "r5")
	add("r6", true, "granted", "", "alice", "\x00Teller", "", "", 1, 0, 1, "0af7651916cd43dd8448eb211c80319z", "r6")
	add("r7", true, "granted", "", "alice", "", "", "", 0, 0, 0, "", "r7")
	// A request ID that is not the key, or none (explain off).
	add("r8", true, "granted", "", "alice", "\x00Teller", "", "", 1, 0, 1, trace, "another")
	add("r9", true, "granted", "", "alice", "\x00Teller", "", "", 1, 0, 1, trace, "")
	add("", true, "", "", "", "", "", "", 0, 0, 0, "", "")
	// Empty lists beside nil ones, and a list of one empty string.
	add("r10", false, "msod", "", "alice", "none", "none", "none", 0, 0, 0, trace, "r10")
	add("r11", false, "msod", "", "alice", "\x00", "\x00\x00", "", 0, 0, 0, trace, "r11")
	// Counts past one varint byte, and the extremes of int.
	add("r12", true, "granted", "", "alice", "\x00Teller", "", "", 128, 1<<40, math.MaxInt, trace, "r12")
	add("r13", true, "granted", "", "alice", "\x00Teller", "", "", -1, math.MinInt, 300, trace, "r13")
	// The two ways an ID is filed: a gateway-minted one (32 lowercase hex
	// digits) by its 16 bytes, and beside it its uppercase spelling, a
	// 16-byte ID that is not hex, and 31 and 33 hex digits, by their text.
	for _, id := range []string{trace, strings.ToUpper(trace), "\x0a\xf7\x65\x19\x16\xcd\x43\xdd\x84\x48\xeb\x21\x1c\x80\x31\x9c", trace[:31], trace + "0"} {
		add(id, false, "msod", "msod: denied by MMER", "alice", "\x00Auditor", "", "", 0, 0, 1, trace, id)
	}

	list := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, "\x00")[1:]
	}
	names := func(s string) ([]bctx.Name, []string) {
		var names []bctx.Name
		var text []string
		for _, t := range list(s) {
			n := fuzzName(t)
			names, text = append(names, n), append(text, n.String())
		}
		return names, text
	}
	f.Fuzz(func(t *testing.T, id string, allowed bool, phase, reason, user, roles, activated, closed string, recorded, purged, matched int, traceID, requestID string) {
		a := answer{
			allowed: allowed, phase: phase, reason: reason, user: user,
			recorded: recorded, purged: purged, matched: matched,
			traceID: traceID, requestID: requestID,
		}
		resp := DecisionResponse{
			Allowed: allowed, Phase: phase, Reason: reason, User: user, Roles: list(roles),
			Recorded: recorded, Purged: purged, MatchedPolicies: matched,
			TraceID: traceID, RequestID: requestID,
		}
		for _, r := range resp.Roles {
			a.roles.roles = append(a.roles.roles, rbac.RoleName(r))
		}
		a.activated.names, resp.Activated = names(activated)
		a.closed.names, resp.Closed = names(closed)
		e := packAnswer(id, &a)
		if k := e.key(); k != keyOf(id) {
			t.Fatalf("packed %q is filed under %+v, want its ID %q", e.packed, k, id)
		}
		replay := e.answer(id)
		want := httptest.NewRecorder()
		WriteJSON(want, http.StatusOK, &resp)
		first, again := httptest.NewRecorder(), httptest.NewRecorder()
		writeAnswer(first, &a)
		writeAnswer(again, &replay)
		if !bytes.Equal(first.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("first answer %s\nencoder      %s", first.Body.Bytes(), want.Body.Bytes())
		}
		if !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("replayed %s\nfirst    %s", again.Body.Bytes(), first.Body.Bytes())
		}
	})
}

// fuzzName is a bound name for a fuzzed text: the name it parses to,
// else a name of one component whose value it is, else the universal
// context.
func fuzzName(s string) bctx.Name {
	if n, err := bctx.Parse(s); err == nil {
		return n
	}
	if n, err := bctx.NewName(bctx.Component{Type: "T", Value: s}); err == nil {
		return n
	}
	return bctx.Universal
}
