package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"msod/internal/obsv"
	"msod/internal/server"
)

// recordingShard is the one scripted shard, for what a real one never
// does: it keeps the bytes of every body POSTed to it, per path and in
// order, and answers with whatever its script says — by default a
// minimal grant for "alice" — misrouted subjects, malformed or
// oversized answers and dropped connections included.
type recordingShard struct {
	ts *httptest.Server

	mu     sync.Mutex
	bodies map[string][][]byte
	// traceparents is the Traceparent header of every POST, in order.
	traceparents []string
	// carried is every CloseHeader value a request brought, in order;
	// with ack set, an answer acknowledges the activations it carried.
	carried []string
	ack     bool
	// answer scripts the n-th (from 0) request to path: a status and a
	// body, or drop to close the connection without answering.
	answer func(path string, n int) (status int, body string, drop bool)
}

// noInstances answers the gateway's activation sync before its first
// decision the way a shard that has started no context instance does.
func noInstances(w http.ResponseWriter, _ *http.Request) {
	json.NewEncoder(w).Encode(server.ActivationResponse{Contexts: []string{}})
}

const aliceGranted = `{"allowed":true,"phase":"granted","user":"alice"}`

func newRecordingShard(t *testing.T) *recordingShard {
	t.Helper()
	s := &recordingShard{bodies: make(map[string][][]byte)}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == server.ActivationPath {
			noInstances(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("shard read: %v", err)
		}
		s.mu.Lock()
		n := len(s.bodies[r.URL.Path])
		s.bodies[r.URL.Path] = append(s.bodies[r.URL.Path], body)
		if r.Method == http.MethodPost {
			s.traceparents = append(s.traceparents, r.Header.Get(obsv.TraceparentHeader))
		}
		s.carried = append(s.carried, r.Header[server.CloseHeader]...)
		if s.ack && len(r.Header[server.CloseHeader]) > 0 {
			w.Header().Set(server.ActivationAckHeader, "1")
		}
		script := s.answer
		s.mu.Unlock()
		status, answer, drop := http.StatusOK, aliceGranted, false
		if script != nil {
			status, answer, drop = script(r.URL.Path, n)
		}
		if drop {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		io.WriteString(w, answer)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

// received returns the bodies POSTed to path so far.
func (s *recordingShard) received(path string) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.bodies[path]...)
}

func (s *recordingShard) script(answer func(path string, n int) (int, string, bool)) {
	s.mu.Lock()
	s.answer = answer
	s.mu.Unlock()
}

// sentTraceparents returns the Traceparent header of every POST so far.
func (s *recordingShard) sentTraceparents() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.traceparents...)
}

// post sends raw bytes to the gateway and returns the status and the
// raw bytes of the answer.
func post(t *testing.T, url string, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(answer)
}

// A PEP's body as no encoder of ours would spell it: its own member
// order, white space, a folded key, a member DecisionRequest does not
// declare.
const aliceAsks = "{ \"context\":\"Branch=York, Period=p1\",\n  \"extension\":{\"pep\":[1,\"}\"]}, \"User\" : \"alice\"," +
	"\"operation\":\"HandleCash\",\"target\":\"till\",\"roles\":[\"Teller\"] }\n"

var splicedID = regexp.MustCompile(`^,"requestID":"[0-9a-f]{32}"$`)

// TestGatewayForwardsThePEPsBytes: the shard receives exactly what the
// PEP sent plus a requestID spliced in front of the closing brace, and
// the PEP receives exactly what the shard answered — a member
// DecisionResponse does not declare and the missing newline included.
func TestGatewayForwardsThePEPsBytes(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t)}
	_, gts, _ := newGateway(t, Config{}, nil, shards[0].ts.URL)
	const answer = `{"allowed":true,"phase":"granted","user":"alice","obligations":["log A"],"matchedPolicies":1}`
	shards[0].script(func(string, int) (int, string, bool) { return http.StatusOK, answer, false })

	status, got := post(t, gts.URL+server.DecisionPath, aliceAsks)
	if status != http.StatusOK || got != answer {
		t.Fatalf("PEP received %d %q, want the shard's bytes %q", status, got, answer)
	}
	bodies := shards[0].received(server.DecisionPath)
	if len(bodies) != 1 {
		t.Fatalf("shard saw %d decision bodies, want 1", len(bodies))
	}
	brace := strings.LastIndexByte(aliceAsks, '}')
	head, tail := aliceAsks[:brace], aliceAsks[brace:]
	sent := string(bodies[0])
	if !strings.HasPrefix(sent, head) || !strings.HasSuffix(sent, tail) || !splicedID.MatchString(sent[len(head):len(sent)-len(tail)]) {
		t.Fatalf("shard received %q, want %q + a spliced requestID + %q", sent, head, tail)
	}

	// An advisory has no side effect to make idempotent: not a byte is
	// added.
	if status, _ := post(t, gts.URL+server.AdvicePath, aliceAsks); status != http.StatusOK {
		t.Fatalf("advice = %d", status)
	}
	if bodies := shards[0].received(server.AdvicePath); len(bodies) != 1 || string(bodies[0]) != aliceAsks {
		t.Fatalf("shard received advice bodies %q, want exactly the PEP's bytes", bodies)
	}
}

// TestGatewayKeepsThePEPsRequestID: a PEP-supplied requestID — under
// any spelling encoding/json would take for the field — leaves the
// bytes identical; an empty or null one does not count as supplied.
func TestGatewayKeepsThePEPsRequestID(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t)}
	_, gts, _ := newGateway(t, Config{}, nil, shards[0].ts.URL)
	for _, tc := range []struct {
		member  string
		spliced bool
	}{
		{`"requestID":"pep-chosen-id"`, false},
		{`"REQUESTID":"pep-chosen-id"`, false},
		{`"requestID":""`, true},
		{`"requestID":null`, true},
		{`"requestID":"first","requestID":""`, true},
	} {
		body := `{"user":"alice",` + tc.member + `,"operation":"op","target":"t","context":"P=1"}`
		before := len(shards[0].received(server.DecisionPath))
		if status, answer := post(t, gts.URL+server.DecisionPath, body); status != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.member, status, answer)
		}
		sent := string(shards[0].received(server.DecisionPath)[before])
		if !tc.spliced && sent != body {
			t.Errorf("%s: shard received %q, want the PEP's bytes untouched", tc.member, sent)
		}
		if tc.spliced {
			var decoded server.DecisionRequest
			if err := server.DecodeDecisionRequest([]byte(sent), &decoded); err != nil || len(decoded.RequestID) != 32 {
				t.Errorf("%s: shard received %q, which decodes to requestID %q (%v); want a minted one", tc.member, sent, decoded.RequestID, err)
			}
		}
	}
}

// TestGatewayRetriesCarryIdenticalBytes: every attempt of a retried
// decision is the same bytes, so the shard's idempotency cache sees one
// requestID.
func TestGatewayRetriesCarryIdenticalBytes(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t)}
	_, gts, _ := newGateway(t, Config{Retries: 2, RetryBackoff: time.Millisecond, FailAfter: 10, BreakerAfter: 10}, nil, shards[0].ts.URL)
	shards[0].script(func(_ string, n int) (int, string, bool) { return http.StatusOK, aliceGranted, n < 2 })
	if status, answer := post(t, gts.URL+server.DecisionPath, aliceAsks); status != http.StatusOK || answer != aliceGranted {
		t.Fatalf("decision after two dropped attempts = %d %s", status, answer)
	}
	bodies := shards[0].received(server.DecisionPath)
	if len(bodies) != 3 {
		t.Fatalf("shard saw %d attempts, want 3", len(bodies))
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[1], bodies[2]) || !bytes.Contains(bodies[0], []byte(`,"requestID":"`)) {
		t.Fatalf("attempts differ, or carry no requestID:\n%q\n%q\n%q", bodies[0], bodies[1], bodies[2])
	}
}

// TestGatewayNeverForwardsAnUnreadableAnswer: a 200 that is not one
// well-formed JSON object, or whose user, activated or closed has the
// wrong type, is a shard failure — retried under the same bytes,
// reported to the checker, ended 503 — and none of it reaches the PEP.
// One longer than the client reads (chunked, so nothing announces its
// length) reaches the PEP neither, but it is an answer the shard would
// give again, not a failure: a 502 after one attempt, with the checker
// untouched.
func TestGatewayNeverForwardsAnUnreadableAnswer(t *testing.T) {
	oversized := aliceGranted + strings.Repeat(" ", 1<<20)
	for _, answer := range []string{
		`<html>it works</html>`,
		``,
		`{"allowed":true,"phase":"granted","user":"alice"`,
		`{"allowed":true,"phase":"granted","user":"alice"} trailing`,
		`[{"allowed":true,"user":"alice"}]`,
		`{"allowed":true,"phase":"granted","user":["alice"]}`,
		`{"allowed":true,"phase":"granted","user":"alice","activated":"Branch=York"}`,
		`{"allowed":true,"phase":"granted","user":"alice","closed":"Branch=*, Period=p1"}`,
		`{"allowed":true,"phase":"granted","user":"alice","closed":[{"context":"Branch=*, Period=p1"}]}`,
		`{"allowed":true,"phase":"granted","user":"alice","recorded":01}`,
		oversized,
	} {
		failure, status, attempts, failures := "decode response", http.StatusServiceUnavailable, 2, 2
		if answer == oversized {
			failure, status, attempts, failures = "limit", http.StatusBadGateway, 1, 0
		}
		shards := []*recordingShard{newRecordingShard(t)}
		gw, gts, _ := newGateway(t, Config{Retries: 1, RetryBackoff: time.Millisecond, FailAfter: 10, BreakerAfter: 10}, nil, shards[0].ts.URL)
		shards[0].script(func(string, int) (int, string, bool) { return http.StatusOK, answer, false })
		got, text := post(t, gts.URL+server.DecisionPath, aliceAsks)
		if got != status || !strings.Contains(text, failure) {
			t.Errorf("answer %.80q: PEP received %d %.200q, want a fail-closed %d naming %q", answer, got, text, status, failure)
		}
		if answer != "" && strings.Contains(text, answer) {
			t.Errorf("answer %.80q reached the PEP: %.200q", answer, text)
		}
		bodies := shards[0].received(server.DecisionPath)
		if len(bodies) != attempts || !bytes.Equal(bodies[0], bodies[len(bodies)-1]) {
			t.Errorf("answer %.80q: shard saw %d attempts, want %d identical ones", answer, len(bodies), attempts)
		}
		if st := gw.Checker().Statuses()["a"]; st.Consecutive != failures || failures > 0 && !strings.Contains(st.LastErr, failure) {
			t.Errorf("answer %.80q: checker holds %+v, want %d decode failures of the shard", answer, st, failures)
		}
	}
}

// TestGatewayWithholdsAnswersItCannotAttribute: a well-formed answer
// that names no user, or a user another shard owns, is still a 502.
func TestGatewayWithholdsAnswersItCannotAttribute(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t), newRecordingShard(t)}
	gw, gts, _ := newGateway(t, Config{}, nil, shards[0].ts.URL, shards[1].ts.URL)
	var onOther string
	owner, _ := gw.ShardFor("alice")
	for i := 0; onOther == ""; i++ {
		if s, _ := gw.ShardFor(fmt.Sprintf("user%05d", i)); s != owner {
			onOther = fmt.Sprintf("user%05d", i)
		}
	}
	for _, answer := range []string{
		`{"allowed":true,"phase":"granted"}`,
		`{"allowed":true,"phase":"granted","user":""}`,
		`{"allowed":true,"phase":"granted","user":null}`,
		`{"allowed":true,"phase":"granted","user":"` + onOther + `"}`,
		`{"allowed":true,"phase":"granted","user":"alice","USER":"` + onOther + `"}`,
	} {
		for _, s := range shards {
			s.script(func(string, int) (int, string, bool) { return http.StatusOK, answer, false })
		}
		for _, path := range []string{server.DecisionPath, server.AdvicePath} {
			if status, got := post(t, gts.URL+path, aliceAsks); status != http.StatusBadGateway || strings.Contains(got, `"allowed"`) {
				t.Errorf("%s answered %q: PEP received %d %q, want a withheld 502", path, answer, status, got)
			}
		}
	}
}

// TestGatewayQueuesAFirstStepsActivation: an answer that reports
// activated instances reaches the PEP at once, as the shard's bytes, and
// no request of its own goes to the peer shard: the activation waits in
// the peer's outbox for the next request sent there, the health probe
// here. An answer that does not acknowledge it — what something
// answering in the shard's place sends — leaves it pending and the peer
// Down; the shard's own acknowledgement settles it.
func TestGatewayQueuesAFirstStepsActivation(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t), newRecordingShard(t)}
	gw, gts, _ := newGateway(t, Config{Retries: -1, FailAfter: 1}, nil, shards[0].ts.URL, shards[1].ts.URL)
	const answer = `{"allowed":true,"phase":"granted","user":"alice","recorded":1,"activated":["Branch=York, Period=p1"]}`
	for _, s := range shards {
		s.script(func(path string, _ int) (int, string, bool) {
			if path == server.HealthPath {
				return http.StatusOK, `{"status":"ok","policy":"p"}`, false
			}
			return http.StatusOK, answer, false
		})
	}
	status, got := post(t, gts.URL+server.DecisionPath, aliceAsks)
	if status != http.StatusOK || got != answer {
		t.Fatalf("PEP received %d %q, want the shard's bytes", status, got)
	}
	owner, _ := gw.ShardFor("alice")
	peer, peerID := shards[0], "a"
	if owner == "a" {
		peer, peerID = shards[1], "b"
	}
	if posts := peer.received(server.ActivationPath); len(posts) != 0 {
		t.Fatalf("the peer was posted %q, want no request before the ack", posts)
	}
	if n := outbox(t, gw, peerID).Pending(); n != 1 {
		t.Fatalf("%d entries queued for the peer, want the activation", n)
	}

	carried := func() []string {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return append([]string(nil), peer.carried...)
	}
	gw.Checker().CheckNow()
	if got := carried(); len(got) != 1 || !strings.HasPrefix(got[0], "|") || !strings.HasSuffix(got[0], "|Branch=York, Period=p1") {
		t.Fatalf("the probe carried %q, want the one activation", got)
	}
	if gw.Checker().Up(peerID) || outbox(t, gw, peerID).Pending() != 1 {
		t.Fatalf("after a probe answered without the acknowledgement: up=%v, %d pending; want Down and the activation kept",
			gw.Checker().Up(peerID), outbox(t, gw, peerID).Pending())
	}
	peer.mu.Lock()
	peer.ack = true
	peer.mu.Unlock()
	gw.Checker().CheckNow()
	if got := carried(); len(got) != 2 || got[1] != got[0] {
		t.Fatalf("the probes carried %q, want the same activation twice", got)
	}
	if !gw.Checker().Up(peerID) || outbox(t, gw, peerID).Pending() != 0 {
		t.Fatalf("after an acknowledged probe: up=%v, %d pending; want Up and nothing pending",
			gw.Checker().Up(peerID), outbox(t, gw, peerID).Pending())
	}
}

// postTraced is post with the PEP's Traceparent header.
func postTraced(t *testing.T, url, body, traceparent string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obsv.TraceparentHeader, traceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(answer)
}

// TestGatewayPassesOnThePEPsTraceparent: a PEP's valid traceparent
// reaches the shard byte for byte, on a decision and on an advisory; a
// missing or malformed one is replaced by one the gateway mints, which
// every attempt of the decision carries.
func TestGatewayPassesOnThePEPsTraceparent(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t)}
	_, gts, _ := newGateway(t, Config{Retries: 1, RetryBackoff: time.Millisecond, FailAfter: 10, BreakerAfter: 10}, nil, shards[0].ts.URL)
	const pep = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, path := range []string{server.DecisionPath, server.AdvicePath} {
		if status, answer := postTraced(t, gts.URL+path, aliceAsks, pep); status != http.StatusOK {
			t.Fatalf("%s: %d %s", path, status, answer)
		}
	}
	if sent := shards[0].sentTraceparents(); len(sent) != 2 || sent[0] != pep || sent[1] != pep {
		t.Fatalf("shard received traceparents %q, want the PEP's %q twice", sent, pep)
	}

	// The first attempt is dropped: the retry carries the same minted value.
	shards[0].script(func(_ string, n int) (int, string, bool) { return http.StatusOK, aliceGranted, n == 1 })
	for _, pep := range []string{"", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01"} {
		before := len(shards[0].sentTraceparents())
		if status, answer := postTraced(t, gts.URL+server.DecisionPath, aliceAsks, pep); status != http.StatusOK {
			t.Fatalf("traceparent %q: %d %s", pep, status, answer)
		}
		sent := shards[0].sentTraceparents()[before:]
		if _, ok := obsv.ParseTraceparent(sent[0]); !ok || sent[0] == pep {
			t.Fatalf("PEP's traceparent %q: shard received %q, want a minted valid one", pep, sent)
		}
		if len(sent) == 2 && sent[1] != sent[0] {
			t.Fatalf("attempts carried traceparents %q, want one per decision", sent)
		}
	}
}

// TestGatewayOneDeadlinePerDecision: the attempts of a decision share one
// Timeout. A shard that stalls past it sees one attempt, not Retries+1:
// the retry would start with no time left, so the PEP gets the
// fail-closed 503 at once.
func TestGatewayOneDeadlinePerDecision(t *testing.T) {
	shard := newShard(t, "a", shardSpec{})
	arrived, _ := shard.hold(t, server.DecisionPath) // until the gateway gives up on the attempt
	gw, gts, _ := newGateway(t, Config{Timeout: 200 * time.Millisecond,
		Retries: 2, RetryBackoff: time.Millisecond, FailAfter: 10, BreakerAfter: 10}, nil, shard.ts.URL)

	for i := 1; i <= 2; i++ {
		if status, answer := post(t, gts.URL+server.DecisionPath, aliceAsks); status != http.StatusServiceUnavailable {
			t.Fatalf("decision %d = %d %s, want the fail-closed 503", i, status, answer)
		}
		if n := len(arrived); n != i {
			t.Fatalf("shard saw %d attempts after %d decisions, want one each", n, i)
		}
	}
	if n := gw.metrics.retries.Load(); n != 0 {
		t.Fatalf("msodgw_retries_total = %d, want 0: no retry was sent", n)
	}
}

// TestGatewayDecisionsShareADeadline: decisions routed close together
// reach the shard under one context, whose deadline is between 63/64 of
// Timeout and all of it after each decision's attempt; a decision routed
// once that slack has passed gets a new one, and the swap cancels
// neither; and a PEP that hangs up does not cancel the shared one.
func TestGatewayDecisionsShareADeadline(t *testing.T) {
	shards := &cannedShards{}
	decide := func(gw *Gateway, ctx context.Context) context.Context {
		t.Helper()
		shards.answers = append(shards.answers, &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(aliceGranted)), ContentLength: int64(len(aliceGranted))})
		w := &memoryWriter{header: http.Header{}}
		gw.ServeHTTP(w, httptest.NewRequest(http.MethodPost, server.DecisionPath, strings.NewReader(aliceAsks)).WithContext(ctx))
		if w.status != http.StatusOK {
			t.Fatalf("decision = %d %s, want the shard's grant", w.status, w.body.Bytes())
		}
		return shards.ctx
	}
	// within routes one decision under the PEP's context pep and checks
	// the deadline the shard saw against the clock read around it.
	within := func(gw *Gateway, pep context.Context) context.Context {
		t.Helper()
		before := time.Now()
		ctx := decide(gw, pep)
		after := time.Now()
		timeout := gw.cfg.Timeout
		if at, ok := ctx.Deadline(); !ok || at.Before(before.Add(timeout-timeout/64)) || at.After(after.Add(timeout)) {
			t.Fatalf("deadline %v (set %v) routed between %v and %v; want within [t0+%v, t0+%v]",
				at, ok, before, after, timeout-timeout/64, timeout)
		}
		return ctx
	}
	newGateway := func(timeout time.Duration) *Gateway {
		gw, _, _ := newGateway(t, Config{Timeout: timeout}, shards, "http://a.invalid")
		return gw
	}

	// The first decision makes the shared deadline, under a PEP's
	// context that a hang-up cancels.
	gw := newGateway(time.Hour)
	pep, hangUp := context.WithCancel(context.Background())
	first := within(gw, pep)
	hangUp()
	if err := first.Err(); err != nil {
		t.Fatalf("the PEP hung up and the shared deadline ended: %v", err)
	}
	if second := within(gw, context.Background()); second != first {
		t.Fatal("two decisions routed back to back reached the shard under different contexts")
	}

	const short = 640 * time.Millisecond // a slack of 10ms
	gw = newGateway(short)
	stale := within(gw, context.Background())
	at, _ := stale.Deadline()
	time.Sleep(time.Until(at.Add(-(short - short/64))) + time.Millisecond)
	if fresh := within(gw, context.Background()); fresh == stale {
		t.Fatal("a decision routed once the slack had passed reused the old deadline")
	}
	if err := stale.Err(); err != nil {
		t.Fatalf("the swap ended the old deadline before its time: %v", err)
	}

	// Decisions routed at once, while the deadline is swapped under them
	// (a slack of 1µs), each get one within their bounds.
	const tiny = 64 * time.Microsecond
	gw = newGateway(tiny)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				before := time.Now()
				at, ok := gw.decisionContext().Deadline()
				if after := time.Now(); !ok || at.Before(before.Add(tiny-tiny/64)) || at.After(after.Add(tiny)) {
					t.Errorf("deadline %v (set %v) taken between %v and %v", at, ok, before, after)
					return
				}
			}
		}()
	}
	wg.Wait()
}
