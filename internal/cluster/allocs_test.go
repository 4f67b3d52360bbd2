package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"msod/internal/credential"
	"msod/internal/obsv"
	"msod/internal/race"
	"msod/internal/server"
)

// memoryWriter is an http.ResponseWriter that keeps the response in
// memory and is reused across requests, so a measured ServeHTTP pays
// for the gateway and nothing of the connection.
type memoryWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memoryWriter) Header() http.Header         { return w.header }
func (w *memoryWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *memoryWriter) WriteHeader(status int)      { w.status = status }

// cannedShards answers the i-th POST it sees with the i-th prepared
// response, so the shard side of the hop allocates nothing while the
// gateway is measured, and keeps the last POST's traceparent and
// context. A GET —
// the activation sync before the first decision — is told no instance is
// running.
type cannedShards struct {
	answers     []*http.Response
	next        int
	traceparent string
	ctx         context.Context
}

func (c *cannedShards) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet {
		const none = `{"contexts":[]}`
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
			Body: io.NopCloser(strings.NewReader(none)), ContentLength: int64(len(none))}, nil
	}
	c.traceparent, c.ctx = r.Header.Get(obsv.TraceparentHeader), r.Context()
	resp := c.answers[c.next]
	c.next++
	resp.Request = r
	return resp, nil
}

// TestRouteDecisionAllocs is the gateway's allocation budget: what
// Gateway.ServeHTTP allocates for one POST /v1/decision, request already
// built under a context of its own that a hang-up would cancel (as
// net/http's server serves it), shard answer already built, response
// into memory. Budgets are exact; a change that moves one edits the
// table and names the allocation.
//
// What a plain decision pays (10), 6 of it net/http's price of one
// POST handed to the RoundTripper; the 5 context charged for a deadline
// of each decision's own left when decisions began to share one
// (counted with the Go 1.24 toolchain, whose crypto/rand.Read keeps a
// caller's array on the stack):
//
//	admit 3     the body, read into one slice of its Content-Length with
//	            room for the requestID (1); the routing key as a string
//	            (1); the traceparent minted for a PEP that sent none,
//	            whose substring is the trace ID (1). It was 6 while the
//	            trace ID was minted apart from the traceparent — its
//	            random bytes, which escaped (1), and its string (1) — and
//	            an empty Trace (1) and the context carrying it (1) were
//	            built for spans the gateway never records
//	requestID 0 the ID's random bytes and hex text stay on the stack and
//	            the splice lands in the body's spare capacity
//	deadline 0  the decision's one deadline, shared by every attempt, is
//	            the gateway's current shared context (decisionContext),
//	            made about once per Timeout/64 rather than per decision.
//	            It was 5 while each decision made its own: the request's
//	            context without its cancellation (1), and
//	            context.WithTimeout's timerCtx, its timer, the timer's
//	            callback and the cancel func (4). Hung off the request's
//	            context itself it cost 7: that context's Done channel (1)
//	            and its map of children with the map's first group (2) —
//	            and a PEP that hung up cancelled the decision. The shard
//	            client's own timeout is no shorter, so under it the
//	            client sets none; the 4 were once the client's, paid per
//	            attempt. Under a real http.Transport the shared deadline
//	            saves 3 more, which this canned RoundTripper cannot show:
//	            the Transport registers each round trip as a child of the
//	            request's context, which gives that parent its map of
//	            children, the map's first group and its lazily made Done
//	            channel — once per decision under a deadline of its own,
//	            once per shared deadline now
//	post 6      the Request, copied by WithContext from a template on the
//	            stack (1); its Header and the Header's first group (2);
//	            the attempt — the body's reader and the Traceparent value
//	            in one object (1); the reader's NopCloser (1) and the
//	            GetBody that rewinds it (1). The URL is parsed once per
//	            shard client, the Content-Type, Accept-Encoding and
//	            User-Agent values are shared, and the traceparent is the
//	            one admit holds. It was 8 through
//	            http.NewRequestWithContext, which parsed the URL (1) and
//	            allocated the reader and the Traceparent value apart (1);
//	            11 with the URL text, the Content-Type value and the
//	            traceparent built per attempt; 13 more through
//	            http.Client.Do, which prepares for a redirect that never
//	            comes: the list of requests made so far (1), the closure
//	            that would copy the headers onto the next one (1) and
//	            the clone it copies from — the Header, its bucket and the
//	            one backing slice of its values (3). Looking in the
//	            shard's outbox, empty here, costs nothing
//	answer 1    the answer, read into one slice of its Content-Length
//	            (1); it is forwarded under the shared Content-Type value
//	            (it was 2 with the value built per answer). The resolved
//	            user costs nothing: it is the routing key
//
// and what the other cases pay instead or on top:
//
//	requestID 1 a PEP-supplied one is read as a string by the peek
//	traceparent a PEP-supplied valid one costs nothing (-1): it goes to the
//	            shard as it came, and the trace ID is its substring
//	credentials no routing key to copy (-1): the subject is the first
//	            holder, which the peek reads by hand with the shard's
//	            credential reader, its string (1) the only allocation:
//	            so a credential-bearing decision pays what a plain one
//	            does, admit 3, post 6, answer 1. It was 9
//	            while encoding/json decoded the credentials array into
//	            holder-only elements: the slice header it decodes
//	            through, the decodeState, its parse stack three deep,
//	            its error context, the element slice, the holder
//	activated 5 the Activated slice and its string (2); the activation
//	            encoded once for all peers, its buffer and its text (2);
//	            the peer list (1) — the test gateway has one shard, so
//	            there is no outbox entry and no header to rebuild. It was
//	            9 while the grant waited for a fan-out: gone are its
//	            closure, scatter's result slice and its deadline
//	            (1 + 1 + 4), come is the encoded entry (2)
//	closed      the Closed slice and its string (2); the close encoded
//	            once for all peers, its buffer and its text (2); the
//	            peer list (1) — again there is no peer, and so no outbox
//	            entry and no header to rebuild. The requestID the close
//	            goes by is the one spliced in, still on the stack
func TestRouteDecisionAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		allocRuns = 200
		warm      = 16
	)
	soa, err := credential.NewAuthority("bank.example")
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	cred, err := soa.IssueRole("alice", "Teller", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	plain := server.DecisionRequest{User: "alice", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"}
	withID := plain
	withID.RequestID = "0123456789abcdef0123456789abcdef"
	granted := server.DecisionResponse{Allowed: true, Phase: "granted", User: "alice", Roles: []string{"Teller"}, Recorded: 1, MatchedPolicies: 1,
		TraceID: "0123456789abcdef0123456789abcdef", RequestID: "0123456789abcdef0123456789abcdef"}
	opened := granted
	opened.Activated = []string{"Branch=York, Period=p1"}
	closed := granted
	closed.Closed = []string{"Branch=*, Period=p1"}

	const pepTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, tc := range []struct {
		name        string
		request     server.DecisionRequest
		traceparent string // the PEP's, when it sends one
		answer      server.DecisionResponse
		budget      float64
	}{
		{name: "plain decision", request: plain, answer: granted, budget: 10},
		{name: "PEP-supplied requestID", request: withID, answer: granted, budget: 11},
		{name: "PEP-supplied traceparent", request: plain, traceparent: pepTraceparent, answer: granted, budget: 9},
		{name: "credential-bearing", answer: granted, budget: 10,
			request: server.DecisionRequest{Credentials: []credential.Credential{cred}, Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"}},
		{name: "answer with activated", request: plain, answer: opened, budget: 15},
		{name: "answer with closed", request: plain, answer: closed, budget: 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.request)
			if err != nil {
				t.Fatal(err)
			}
			answer, err := json.Marshal(tc.answer)
			if err != nil {
				t.Fatal(err)
			}
			answer = append(answer, '\n') // as the shard's Encoder ends it
			shards := &cannedShards{}
			gw, err := New(Config{Shards: []Shard{{ID: "s0", BaseURL: "http://s0.invalid"}}, HTTPClient: &http.Client{Transport: shards}})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			reqs := make([]*http.Request, warm+allocRuns+1)
			for i := range reqs {
				// Each request under a context of its own that a hang-up
				// would cancel, as net/http's server serves it.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if reqs[i], err = http.NewRequestWithContext(ctx, http.MethodPost, server.DecisionPath, bytes.NewReader(body)); err != nil {
					t.Fatal(err)
				}
				if tc.traceparent != "" {
					reqs[i].Header.Set(obsv.TraceparentHeader, tc.traceparent)
				}
				shards.answers = append(shards.answers, &http.Response{
					StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
					Header:        http.Header{"Content-Type": {"application/json"}},
					Body:          io.NopCloser(bytes.NewReader(answer)),
					ContentLength: int64(len(answer)),
				})
			}
			w := &memoryWriter{header: http.Header{}}
			i := 0
			one := func() {
				w.body.Reset()
				gw.ServeHTTP(w, reqs[i])
				i++
			}
			for i < warm {
				one()
			}
			got := testing.AllocsPerRun(allocRuns, one)
			if w.status != http.StatusOK || !bytes.Equal(w.body.Bytes(), answer) {
				t.Fatalf("status %d, answer %s; want the shard's bytes", w.status, w.body.Bytes())
			}
			if _, valid := obsv.ParseTraceparent(shards.traceparent); !valid || tc.traceparent != "" && shards.traceparent != tc.traceparent {
				t.Fatalf("the shard received traceparent %q; want the PEP's %q, or a valid minted one", shards.traceparent, tc.traceparent)
			}
			if got != tc.budget {
				t.Fatalf("%v allocs, budget %v", got, tc.budget)
			}
		})
	}
}

// TestRingLookupAllocs: what a routed decision asks of the ring — one
// lookup, and one on the next ring while a handoff window is open —
// allocates nothing; the version is computed when membership changes.
func TestRingLookupAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	r := NewRing(0)
	for _, id := range []string{"s0", "s1", "s2"} {
		r.Add(id)
	}
	next := r.Clone()
	next.Add("s3")
	if _, v := r.Snapshot(); v == 0 {
		t.Fatal("no version")
	}
	key := "a-user-id-longer-than-a-small-string-buffer-0042"
	if got := testing.AllocsPerRun(200, func() {
		if _, ok := r.Lookup(key); !ok {
			t.Fatal("no owner")
		}
		if _, ok := next.Lookup(key); !ok {
			t.Fatal("no next owner")
		}
	}); got != 0 {
		t.Fatalf("Lookup on both rings: %v allocs, want 0", got)
	}
}
