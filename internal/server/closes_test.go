package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/inspect"
	"msod/internal/pdp"
)

const closesInstance = "TaxOffice=Leeds, taxRefundProcess=p1"

// approveIn records one approve/disapproveCheck by user in the instance.
func approveIn(t *testing.T, c *Client, user, instance string) DecisionResponse {
	t.Helper()
	resp, err := c.Decision(DecisionRequest{
		User: user, Roles: []string{"Manager"},
		Operation: "approve/disapproveCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: instance,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDecisionReportsClosed: a granted LastStep names the instance it
// terminated, as a FirstStep names the one it started, and the replay of
// its answer names it again — the gateway may have lost the first.
func TestDecisionReportsClosed(t *testing.T) {
	ts, p := startServer(t)
	c := NewClient(ts.URL, nil)
	prepare(t, c, "c1", "p1")
	last := DecisionRequest{
		User: "c2", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: closesInstance, RequestID: "last-step-1",
	}
	for _, attempt := range []string{"first", "replayed"} {
		resp, err := c.Decision(last)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Allowed || resp.Purged != 1 || len(resp.Closed) != 1 || resp.Closed[0] != closesInstance || len(resp.Activated) != 0 {
			t.Fatalf("%s answer = %+v, want Purged 1 and Closed=[%s]", attempt, resp, closesInstance)
		}
	}
	if p.Store().Len() != 0 {
		t.Fatalf("store holds %d records after the last step", p.Store().Len())
	}
}

// TestCloseEncoding: whatever a requestID or a context name contains,
// the header value is one net/http will send, and parses back to what
// was encoded.
func TestCloseEncoding(t *testing.T) {
	for _, tc := range []struct {
		id       string
		contexts []string
	}{
		{"0123456789abcdef0123456789abcdef", []string{"Branch=*, Period=2006"}},
		{" padded id ", []string{"TaxOffice=Leeds, taxRefundProcess=p1", "A=1"}},
		{"semi;colon|bar%percent=eq", []string{"A=x;y|z%, B=100%"}},
		{"ctl\x00\r\n\x7f", []string{"A=tab\there, B=new\nline"}},
		{"ünï©ode\xff", []string{"Büro=Zürich, Vorgang=№5"}},
		{"universal", []string{""}},
	} {
		entry, ok := EncodeClose(tc.id, tc.contexts)
		if !ok {
			t.Fatalf("EncodeClose(%q, %q) refused", tc.id, tc.contexts)
		}
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header[CloseHeader] = []string{entry + ";" + entry}
		var sent strings.Builder
		if err := req.Header.Write(&sent); err != nil {
			t.Fatal(err)
		}
		if want := CloseHeader + ": " + entry + ";" + entry + "\r\n"; sent.String() != want {
			t.Fatalf("net/http writes %q, want %q", sent.String(), want)
		}
		for i := 0; i < len(entry); i++ {
			if c := entry[i]; c < 0x20 || c >= 0x7f || c == ';' {
				t.Fatalf("entry %q carries byte %#x unescaped", entry, c)
			}
		}
		if entry != strings.TrimSpace(entry) {
			t.Fatalf("entry %q would lose its ends in a header", entry)
		}
		fields := strings.Split(entry, "|")
		if len(fields) != 1+len(tc.contexts) {
			t.Fatalf("entry %q has %d fields, want %d", entry, len(fields), 1+len(tc.contexts))
		}
		for i, want := range append([]string{tc.id}, tc.contexts...) {
			if got, ok := unescape(fields[i]); !ok || got != want {
				t.Fatalf("field %d of %q decodes to %q, %v; want %q", i, entry, got, ok, want)
			}
		}
	}
	for _, bad := range []string{"%", "%4", "%4g", "%zz", "a%4", "%e9"} {
		if got, ok := unescape(bad); ok {
			t.Errorf("unescape(%q) = %q, want it refused", bad, got)
		}
	}
	for name, tc := range map[string]struct {
		id       string
		contexts []string
	}{
		"no requestID": {"", []string{"A=1"}},
		"no context":   {"id", nil},
		"oversize":     {strings.Repeat("x", entryMax), []string{"A=1"}},
	} {
		if entry, ok := EncodeClose(tc.id, tc.contexts); ok {
			t.Errorf("%s: EncodeClose accepted it as %d bytes", name, len(entry))
		}
	}
}

// TestOutbox: every request carries everything pending; an answered one
// takes what it carried — and only that — with it; a failed one too, but
// counted as lost; a full outbox loses its oldest, counted.
func TestOutbox(t *testing.T) {
	var stats CloseStats
	o := NewOutbox(&stats)
	if h, end, opens := o.attach(); h != nil || end != 0 || opens {
		t.Fatalf("empty outbox attaches %q up to %d", h, end)
	}
	o.Enqueue("a|A=1")
	o.Enqueue("b|A=2")
	first, firstEnd, _ := o.attach()
	again, _, _ := o.attach()
	if len(first) != 1 || first[0] != "a|A=1;b|A=2" || &first[0] != &again[0] {
		t.Fatalf("attach = %q then %q, want one shared value carrying both", first, again)
	}
	o.Enqueue("c|A=3")
	second, secondEnd, _ := o.attach()
	if second[0] != "a|A=1;b|A=2;c|A=3" || first[0] != "a|A=1;b|A=2" {
		t.Fatalf("after a third close: %q (and the value already on the wire: %q)", second, first)
	}
	// The first request is answered: c stays, and a duplicate settle of
	// the same request changes nothing.
	o.settle(firstEnd, true, false)
	o.settle(firstEnd, false, false)
	if h, _, _ := o.attach(); len(h) != 1 || h[0] != "c|A=3" || stats.Lost.Load() != 0 {
		t.Fatalf("after the first answer: %q pending, %d lost; want c alone, none lost", h, stats.Lost.Load())
	}
	// The second request, which carried all three, fails: only c was
	// still pending, so only c is lost.
	o.settle(secondEnd, false, false)
	if o.Pending() != 0 || stats.Lost.Load() != 1 {
		t.Fatalf("after the failure: %d pending, %d lost; want 0 and 1", o.Pending(), stats.Lost.Load())
	}
	// A full outbox makes room, oldest first, by bytes.
	big := strings.Repeat("x", outboxMax/4)
	for _, id := range []string{"1", "2", "3", "4"} {
		o.Enqueue(id + big[1:])
	}
	if o.Pending() != 4 || stats.Overflowed.Load() != 0 {
		t.Fatalf("an outbox filled to the byte holds %d, overflowed %d; want 4 and 0", o.Pending(), stats.Overflowed.Load())
	}
	o.Enqueue("y|A=1")
	o.Enqueue("5" + big[1:])
	if h, _, _ := o.attach(); o.Pending() != 4 || stats.Overflowed.Load() != 2 || !strings.HasPrefix(h[0], "3x") || len(h[0]) > outboxMax+3 {
		t.Fatalf("after two more: %d pending, %d overflowed, header of %d bytes starting %.2q; want 4, 2 and the two oldest gone",
			o.Pending(), stats.Overflowed.Load(), len(h[0]), h[0])
	}
	_, end, _ := o.attach()
	o.settle(end, true, false)
	o.Enqueue(big)
	if o.Pending() != 1 || stats.Overflowed.Load() != 2 {
		t.Fatalf("a settled outbox has room again: %d pending, %d overflowed; want 1 and 2", o.Pending(), stats.Overflowed.Load())
	}
}

// carry sends one health probe to ts with the given CloseHeader value.
func carry(t *testing.T, ts *httptest.Server, header string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+HealthPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header[CloseHeader] = []string{header}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health carrying %q: status %d", header, resp.StatusCode)
	}
}

// TestShardAppliesCarriedCloses: a handoff-capable shard closes the
// instances a request's header names before it serves the request — any
// request, the health probe included — publishes each as the purge event
// a management purge publishes, and applies a close once however often
// it arrives: the second arrival must not touch an instance that has
// been opened again in between.
func TestShardAppliesCarriedCloses(t *testing.T) {
	ts, p := startHandoffServer(t)
	c := NewClient(ts.URL, nil)
	prepare(t, c, "c1", "p1")
	if r := approveIn(t, c, "m1", closesInstance); !r.Allowed || r.Recorded != 1 {
		t.Fatalf("approve in the running instance = %+v", r)
	}
	entry, _ := EncodeClose("last-step-1", []string{closesInstance})
	other, _ := EncodeClose("last-step-2", []string{"TaxOffice=Leeds, taxRefundProcess=never-opened"})
	carry(t, ts, entry+";"+other)
	if n := p.Store().Len(); n != 0 {
		t.Fatalf("%d records left after the carried close", n)
	}

	// The instance name is used again; the same close arrives again (a
	// duplicate carry, or the replay of the last step's answer).
	prepare(t, c, "c1", "p1")
	if r := approveIn(t, c, "m1", closesInstance); !r.Allowed || r.Recorded != 1 {
		t.Fatalf("approve in the re-opened instance = %+v", r)
	}
	carry(t, ts, entry)
	if n := p.Store().Len(); n != 2 {
		t.Fatalf("the re-opened instance holds %d records after the close arrived a second time, want its 2", n)
	}
	if r := approveIn(t, c, "m1", closesInstance); r.Allowed {
		t.Fatalf("m1 approves twice in the re-opened instance: %+v — its history was deleted", r)
	}
	if got := ts.Config.Handler.(*Server).metrics.closesApplied.Load(); got != 2 {
		t.Fatalf("msod_closes_applied_total = %d, want 2 (two last steps, each once)", got)
	}

	// Entries that do not parse are skipped, the rest of the header is
	// applied: the instance opened above ends with last-step-3.
	third, _ := EncodeClose("last-step-3", []string{closesInstance})
	carry(t, ts, "no-context;|A=1;bad%zz|A=1;bad-context|A;"+third)
	if n := p.Store().Len(); n != 0 {
		t.Fatalf("%d records left after a header with malformed entries around a good one", n)
	}

	// Three closes applied, a fourth skipped as a duplicate: four events
	// would mean the duplicate purged too. A last close of an instance
	// never opened marks the end of the replayed purges.
	const marker = "TaxOffice=Leeds, taxRefundProcess=marker"
	last, _ := EncodeClose("last-step-4", []string{marker})
	carry(t, ts, last)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var purges []inspect.DecisionEvent
	errDone := errors.New("done")
	err := c.FollowEvents(ctx, FollowEventsOptions{Outcome: inspect.OutcomePurge, Replay: 10}, func(ev inspect.DecisionEvent) error {
		if ev.Context == marker {
			return errDone
		}
		purges = append(purges, ev)
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("following the purges = %v after %d, want them all replayed", err, len(purges))
	}
	if len(purges) != 3 {
		t.Fatalf("%d purge events, want 3 (p1, never-opened, p1 again; none for the duplicate): %+v", len(purges), purges)
	}
	for i, want := range []struct {
		context string
		purged  int
	}{{closesInstance, 2}, {"TaxOffice=Leeds, taxRefundProcess=never-opened", 0}, {closesInstance, 2}} {
		ev := purges[i]
		if ev.Effect != inspect.OutcomePurge || ev.Operation != string(pdp.OpPurgeContext) || ev.Context != want.context || ev.Purged != want.purged {
			t.Errorf("purge event %d = %+v, want purgeContext of %q removing %d", i, ev, want.context, want.purged)
		}
	}
}

// TestShardWithoutHandoffIgnoresCloses: the header deletes history on
// the sender's word alone, so a shard not run with -handoff does not
// look at it.
func TestShardWithoutHandoffIgnoresCloses(t *testing.T) {
	ts, p := startServer(t)
	c := NewClient(ts.URL, nil)
	prepare(t, c, "c1", "p1")
	entry, _ := EncodeClose("last-step-1", []string{closesInstance})
	carry(t, ts, entry)
	if n := p.Store().Len(); n != 1 {
		t.Fatalf("a shard without -handoff holds %d records after a carried close, want its 1", n)
	}
}

// TestCloseContext: closing an instance through the PDP's one entry
// (pdp.PDP.Apply, under the engine lock) reports what it removed.
func TestCloseContext(t *testing.T) {
	ts, p := startHandoffServer(t)
	c := NewClient(ts.URL, nil)
	prepare(t, c, "c1", "p1")
	prepare(t, c, "c1", "p2")
	eff, err := p.Apply("test", adi.Op{Kind: adi.OpClose, Bound: bctx.MustParse(closesInstance)})
	if err != nil || eff.Removed != 1 || p.Store().Len() != 1 {
		t.Fatalf("the close removed %d (%v), store holds %d; want 1 and 1", eff.Removed, err, p.Store().Len())
	}
}

// lossy is a RoundTripper that fails the requests it is told to, before
// or after the server has seen them, or answers them without the
// activation acknowledgement, as something in front of the server would.
type lossy struct {
	base       http.RoundTripper
	failBefore bool // the next request never reaches the server
	failAfter  bool // the next request's answer is lost
	stripAck   bool // the next answer loses its acknowledgement
}

func (l *lossy) RoundTrip(r *http.Request) (*http.Response, error) {
	if l.failBefore {
		l.failBefore = false
		return nil, errors.New("lossy: connection refused")
	}
	resp, err := l.base.RoundTrip(r)
	if err == nil && l.failAfter {
		l.failAfter = false
		resp.Body.Close()
		return nil, errors.New("lossy: connection reset")
	}
	if err == nil && l.stripAck {
		l.stripAck = false
		resp.Header.Del(ActivationAckHeader)
	}
	return resp, err
}

// TestClientCarriesOutbox: every kind of request the client makes
// carries what is pending, an answer of any status settles it, a
// transport failure gives it up — whether or not the shard saw it — and
// nothing is ever carried twice after that.
func TestClientCarriesOutbox(t *testing.T) {
	ts, _ := startHandoffServer(t)
	var stats CloseStats
	net := &lossy{base: http.DefaultTransport}
	c := NewClient(ts.URL, &http.Client{Transport: net})
	c.Outbox = NewOutbox(&stats)
	applied := func() int64 { return ts.Config.Handler.(*Server).metrics.closesApplied.Load() }
	n := 0
	enqueue := func() {
		n++
		entry, ok := EncodeClose(strings.Repeat("i", n), []string{closesInstance})
		if !ok {
			t.Fatal("EncodeClose refused")
		}
		c.Outbox.Enqueue(entry)
	}
	ctx := context.Background()
	tax := DecisionRequest{User: "c9", Roles: []string{"Clerk"}, Operation: "prepareCheck",
		Target: "http://www.myTaxOffice.com/Check", Context: "TaxOffice=York, taxRefundProcess=q"}
	for _, kind := range []struct {
		name string
		send func() error
	}{
		{"health", func() error { _, err := c.Health(); return err }},
		{"decision", func() error { _, err := c.Decision(tax); return err }},
		{"advice", func() error { _, err := c.Advice(tax); return err }},
		{"state", func() error { _, err := c.ContextStateCtx(ctx, "TaxOffice=York"); return err }},
		{"activation", func() error { _, err := c.Activate(ctx, []string{"TaxOffice=York, taxRefundProcess=r"}); return err }},
		{"active contexts", func() error { _, err := c.ActiveContexts(ctx); return err }},
		{"handoff users", func() error { _, err := c.HandoffUsers(ctx); return err }},
		{"snapshot", func() error { _, err := c.ReplicaSnapshotUsers(ctx, []string{"c9"}); return err }},
		// A refusal is an answer too: the shard applied the closes before
		// it looked at the request.
		{"refused management", func() error {
			_, err := c.Manage(ManagementWireRequest{User: "nobody", Operation: "stats"})
			if apiStatus(t, err) != http.StatusForbidden {
				return err
			}
			return nil
		}},
		{"event stream", func() error {
			sctx, cancel := context.WithCancel(ctx)
			defer cancel()
			errDone := errors.New("done")
			err := c.FollowEvents(sctx, FollowEventsOptions{Replay: 1}, func(inspect.DecisionEvent) error { return errDone })
			if errors.Is(err, errDone) {
				return nil
			}
			return err
		}},
	} {
		before := applied()
		enqueue()
		if err := kind.send(); err != nil {
			t.Fatalf("%s: %v", kind.name, err)
		}
		if applied() != before+1 || c.Outbox.Pending() != 0 {
			t.Fatalf("%s: %d closes applied (want %d), %d still pending", kind.name, applied(), before+1, c.Outbox.Pending())
		}
	}
	if stats.Lost.Load() != 0 {
		t.Fatalf("%d closes lost over answered requests", stats.Lost.Load())
	}

	// Lost on the way there, lost on the way back: given up both times.
	for _, tc := range []struct {
		name    string
		arm     func()
		reaches int64
	}{
		{"request lost", func() { net.failBefore = true }, 0},
		{"answer lost", func() { net.failAfter = true }, 1},
	} {
		before, lost := applied(), stats.Lost.Load()
		enqueue()
		tc.arm()
		if _, err := c.Health(); err == nil {
			t.Fatalf("%s: the probe succeeded", tc.name)
		}
		if c.Outbox.Pending() != 0 || stats.Lost.Load() != lost+1 || applied() != before+tc.reaches {
			t.Fatalf("%s: %d pending, %d lost (want %d), %d applied (want %d)", tc.name,
				c.Outbox.Pending(), stats.Lost.Load(), lost+1, applied(), before+tc.reaches)
		}
		if _, err := c.Health(); err != nil || applied() != before+tc.reaches {
			t.Fatalf("%s: the next probe: %v, %d applied (want %d: nothing is sent again)", tc.name, err, applied(), before+tc.reaches)
		}
	}
}

// TestClientUnaryRequests: what http.Client.Do did for a request that is
// kept now that unary requests go to the RoundTripper — a URL's userinfo
// is sent as basic auth, a redirect is an *APIError (not followed), and
// the supplied client's Timeout bounds the request like WithTimeout.
func TestClientUnaryRequests(t *testing.T) {
	var sawAuth string
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case HealthPath:
			sawAuth = r.Header.Get("Authorization")
			http.Redirect(w, r, "/elsewhere", http.StatusTemporaryRedirect)
		case "/elsewhere":
			t.Error("the redirect was followed")
		default:
			<-release
		}
	}))
	defer ts.Close()
	defer close(release) // first: Close waits for the stalled handler
	c := NewClient(strings.Replace(ts.URL, "http://", "http://gateway:s3cret@", 1), &http.Client{})
	_, err := c.Health()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTemporaryRedirect {
		t.Fatalf("redirected health = %v, want a 307 *APIError", err)
	}
	if want := "Basic Z2F0ZXdheTpzM2NyZXQ="; sawAuth != want {
		t.Fatalf("Authorization = %q, want %q", sawAuth, want)
	}

	slow := NewClient(ts.URL, &http.Client{Timeout: 50 * time.Millisecond}, WithTimeout(time.Minute))
	start := time.Now()
	if _, err := slow.Decision(DecisionRequest{}); !errors.Is(err, context.DeadlineExceeded) || errors.As(err, &apiErr) {
		t.Fatalf("stalled decision = %v, want the http.Client's 50ms Timeout as a transport error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("returned after %v despite the 50ms Timeout", elapsed)
	}
}

const otherInstance = "TaxOffice=Leeds, taxRefundProcess=p2"

// running lists the instances the server considers running; the GET
// carries nothing.
func running(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	got, err := NewClient(ts.URL, nil).ActiveContexts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// activation encodes one open, failing the test if it cannot be.
func activation(t *testing.T, requestID string, contexts ...string) string {
	t.Helper()
	entry, ok := EncodeActivation(requestID, contexts)
	if !ok {
		t.Fatalf("EncodeActivation(%q, %q) refused", requestID, contexts)
	}
	return entry
}

// outboxClient is a client over transport whose outbox holds entries.
func outboxClient(ts *httptest.Server, transport http.RoundTripper, stats *CloseStats, entries ...string) *Client {
	c := NewClient(ts.URL, &http.Client{Transport: transport})
	c.Outbox = NewOutbox(stats)
	for _, e := range entries {
		c.Outbox.Enqueue(e)
	}
	return c
}

// TestShardAppliesCarriedActivation: a request carrying an activation
// has it applied before its handler runs — on a shard without -handoff
// too, since an activation can only make a shard record more — and the
// answer acknowledges it, which settles it. Carried again under the same
// requestID it is applied once: an instance closed in between stays
// closed, and only another first step's activation starts it again.
func TestShardAppliesCarriedActivation(t *testing.T) {
	ts, p := startServer(t)
	var stats CloseStats
	c := outboxClient(ts, http.DefaultTransport, &stats, activation(t, "first-step-1", closesInstance))
	if r := approveIn(t, c, "m1", closesInstance); !r.Allowed || r.Recorded != 1 {
		t.Fatalf("the approval carrying the activation = %+v, want it recorded in the running instance", r)
	}
	if n := c.Outbox.Pending(); n != 0 {
		t.Fatalf("%d entries pending after the acknowledged answer, want 0", n)
	}

	if _, err := p.Apply("test", adi.Op{Kind: adi.OpClose, Bound: bctx.MustParse(closesInstance)}); err != nil {
		t.Fatal(err)
	}
	c.Outbox.Enqueue(activation(t, "first-step-1", closesInstance))
	if _, err := c.Health(); err != nil || c.Outbox.Pending() != 0 {
		t.Fatalf("health carrying the same activation again: %v, %d pending; want it acknowledged", err, c.Outbox.Pending())
	}
	if got := running(t, ts); len(got) != 0 {
		t.Fatalf("the closed instance runs again after its old activation was carried again: %q", got)
	}
	c.Outbox.Enqueue(activation(t, "first-step-2", closesInstance))
	if _, err := c.Health(); err != nil {
		t.Fatal(err)
	}
	if got := running(t, ts); len(got) != 1 || got[0] != closesInstance {
		t.Fatalf("after another first step's activation the shard runs %q, want [%s]", got, closesInstance)
	}
}

// TestCarriedOpenThenCloseResentAfterALostAnswer: a request carries an
// instance's activation and then its close; the shard applies both and
// the answer is lost. The close is given up, the activation carried
// again — and not applied again: the instance stays closed.
func TestCarriedOpenThenCloseResentAfterALostAnswer(t *testing.T) {
	ts, _ := startHandoffServer(t)
	var stats CloseStats
	close, _ := EncodeClose("last-step-1", []string{closesInstance})
	net := &lossy{base: http.DefaultTransport, failAfter: true}
	c := outboxClient(ts, net, &stats, activation(t, "first-step-1", closesInstance), close)
	if _, err := c.Health(); err == nil {
		t.Fatal("the probe whose answer was lost succeeded")
	}
	if c.Outbox.Pending() != 1 || stats.Lost.Load() != 1 {
		t.Fatalf("after the lost answer: %d pending, %d closes lost; want the activation kept and the close given up", c.Outbox.Pending(), stats.Lost.Load())
	}
	if _, err := c.Health(); err != nil || c.Outbox.Pending() != 0 {
		t.Fatalf("carrying the activation again: %v, %d pending; want it acknowledged", err, c.Outbox.Pending())
	}
	if got := running(t, ts); len(got) != 0 {
		t.Fatalf("the instance runs after [open, close] and the open again: %q", got)
	}
}

// TestActivationPendingUntilAcknowledged: an answer without the
// acknowledgement — something in front of the shard answered — leaves
// the activation pending and gives up the closes it carried; a transport
// failure does the same; the shard's own answer settles it.
func TestActivationPendingUntilAcknowledged(t *testing.T) {
	ts, _ := startHandoffServer(t)
	var stats CloseStats
	net := &lossy{base: http.DefaultTransport}
	c := outboxClient(ts, net, &stats, activation(t, "first-step-1", closesInstance))
	for _, step := range []struct {
		name string
		arm  func()
		fail bool
	}{
		{"answer without the acknowledgement", func() { net.stripAck = true }, false},
		{"request lost", func() { net.failBefore = true }, true},
	} {
		lost := stats.Lost.Load()
		close, _ := EncodeClose("last-step-"+step.name, []string{otherInstance})
		c.Outbox.Enqueue(close)
		step.arm()
		if _, err := c.Health(); (err != nil) != step.fail {
			t.Fatalf("%s: health = %v", step.name, err)
		}
		if c.Outbox.Pending() != 1 || c.Outbox.Unacknowledged(c.Outbox.Mark()) != 1 || stats.Lost.Load() != lost+1 {
			t.Fatalf("%s: %d pending (%d activations), %d closes lost; want the activation alone kept and the close lost",
				step.name, c.Outbox.Pending(), c.Outbox.Unacknowledged(c.Outbox.Mark()), stats.Lost.Load()-lost)
		}
	}
	if _, err := c.Health(); err != nil || c.Outbox.Pending() != 0 {
		t.Fatalf("the shard's own answer: %v, %d pending; want the activation acknowledged", err, c.Outbox.Pending())
	}
	if got := running(t, ts); len(got) != 1 || got[0] != closesInstance {
		t.Fatalf("the shard runs %q, want [%s]", got, closesInstance)
	}
}

// TestOutboxNeverDropsAnActivation: a full outbox makes room by dropping
// its oldest closes only; when its activations alone leave no room, a
// new activation is refused (the caller withholds its grant) and a new
// close is dropped, counted, like any overflowing close.
func TestOutboxNeverDropsAnActivation(t *testing.T) {
	var stats CloseStats
	o := NewOutbox(&stats)
	o.Enqueue("|first|A=1")
	o.Enqueue("c0|A=1")
	opens := 1
	for _, size := range []int{entryMax, 1} {
		for o.Enqueue("|" + strings.Repeat("o", size-1)) {
			if opens++; opens > outboxMax {
				t.Fatal("the outbox takes activations past its bound")
			}
		}
	}
	h, _, _ := o.attach()
	if o.Unacknowledged(o.Mark()) != opens || stats.Overflowed.Load() != 1 || o.Pending() != opens || !strings.HasPrefix(h[0], "|first|A=1;") {
		t.Fatalf("filled with %d activations: %d of them pending, %d entries, %d closes overflowed, header starting %.12q; want every activation, the oldest first, and the one close dropped",
			opens, o.Unacknowledged(o.Mark()), o.Pending(), stats.Overflowed.Load(), h[0])
	}
	if o.Enqueue("c1|A=1") || stats.Overflowed.Load() != 2 || o.Pending() != opens {
		t.Fatalf("a close into an outbox full of activations: %d pending, %d overflowed; want it refused and counted", o.Pending(), stats.Overflowed.Load())
	}
	_, end, carriesOpens := o.attach()
	o.settle(end, true, false)
	if o.Pending() != opens || !carriesOpens {
		t.Fatalf("an unacknowledged request took %d of %d activations with it", opens-o.Pending(), opens)
	}
	o.settle(end, true, true)
	if o.Pending() != 0 || !o.Enqueue("c2|A=1") {
		t.Fatalf("after the acknowledgement: %d pending, want room again", o.Pending())
	}
}

// TestRequestIDFitsIsTheShortestEntry: RequestIDFits accepts exactly the
// requestIDs under which an open of one shortest instance encodes, at
// the bound and across it, with and without escaped bytes.
func TestRequestIDFitsIsTheShortestEntry(t *testing.T) {
	for _, unit := range []string{"r", "%", " ", "\xff"} {
		for n := 1; n <= entryMax; n++ {
			id := strings.Repeat(unit, n)
			_, ok := EncodeActivation(id, []string{"T=v"})
			if RequestIDFits(id) != ok {
				t.Fatalf("RequestIDFits of %d × %q = %v; the open encodes: %v", n, unit, !ok, ok)
			}
		}
	}
}
