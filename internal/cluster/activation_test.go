package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/fault"
	"msod/internal/pdp"
	"msod/internal/server"
	"msod/internal/workload"
)

// activeOn lists the context instances a shard considers running, asked
// directly rather than through the gateway (so nothing queued rides it).
func activeOn(t *testing.T, sh *testShard) []string {
	t.Helper()
	got, err := server.NewClient(sh.ts.URL, nil).ActiveContexts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// countingPaths forwards every request and counts them by method and
// path.
type countingPaths struct {
	mu   sync.Mutex
	seen map[string]int
}

func (c *countingPaths) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	if c.seen == nil {
		c.seen = map[string]int{}
	}
	c.seen[r.Method+" "+r.URL.Path]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

func (c *countingPaths) count(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen[key]
}

// TestActivationRidesTheNextRequest: a grant that starts a
// FirstStep-gated instance is acked at once, with no request of its own
// to the peer shards; each peer is told on the next request it is sent,
// before that request is served, and only then.
func TestActivationRidesTheNextRequest(t *testing.T) {
	net := &countingPaths{}
	shards := newShards(t, 2, handoff)
	gw, _, c := newGateway(t, Config{}, net, urls(shards)...)
	b := shards[1]
	clerk := userOn(t, gw, "a", "clerk", 0)
	resp := mustDecide(t, c, taxStep(clerk, "Clerk", "prepareCheck", checkTarget, "p1", ""), true)
	if len(resp.Activated) != 1 {
		t.Fatalf("first step = %+v, want one activated instance", resp)
	}
	const p1 = "TaxOffice=Leeds, taxRefundProcess=p1"
	if n := net.count(http.MethodPost + " " + server.ActivationPath); n != 0 {
		t.Fatalf("%d activation posts on the way to the ack, want none", n)
	}
	if got := activeOn(t, b); len(got) != 0 || outbox(t, gw, "b").Pending() != 1 {
		t.Fatalf("before b is sent anything: it runs %q, %d queued for it; want nothing running and the activation queued", got, outbox(t, gw, "b").Pending())
	}
	gw.Checker().CheckNow()
	if got := activeOn(t, b); !slices.Equal(got, []string{p1}) || outbox(t, gw, "b").Pending() != 0 {
		t.Fatalf("after one probe: b runs %q, %d queued for it; want [%s] and nothing queued", got, outbox(t, gw, "b").Pending(), p1)
	}
	if gw.metrics.activationFanouts.Load() != 1 || gw.metrics.activationWithheld.Load() != 0 {
		t.Fatalf("activations queued %d, withheld %d; want 1 and 0", gw.metrics.activationFanouts.Load(), gw.metrics.activationWithheld.Load())
	}
}

// TestRequestIDTooLongToCarryIsRefusedBeforeAnyShard: a recording
// request under a requestID no open or close could carry is refused 400
// by the gateway, so no shard commits a step the gateway could not then
// tell the others of. A retry under another ID is the first to record,
// and records once.
func TestRequestIDTooLongToCarryIsRefusedBeforeAnyShard(t *testing.T) {
	shards := newShards(t, 2, handoff)
	gw, gts, _ := newGateway(t, Config{Retries: -1}, nil, urls(shards)...)
	c := server.NewClient(gts.URL, nil, server.WithShedRetries(0))
	records := func() int {
		n := 0
		for _, sh := range shards {
			n += sh.store.Len()
		}
		return n
	}
	clerk := userOn(t, gw, "a", "clerk", 0)
	step := taxStep(clerk, "Clerk", "prepareCheck", checkTarget, "p0", strings.Repeat("r", 2048))
	_, err := c.Decision(step)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("first step under a 2,048-byte requestID = %v, want 400", err)
	}
	if n := records(); n != 0 {
		t.Fatalf("the refused step left %d records, want none", n)
	}
	step.RequestID = "retry-1"
	if resp := mustDecide(t, c, step, true); len(resp.Activated) != 1 {
		t.Fatalf("retry = %+v, want one activated instance", resp)
	}
	if n := records(); n != 1 {
		t.Fatalf("%d records after the retry, want 1", n)
	}
}

// TestActivationWithheldWhenItCannotBeQueued: an activation that cannot
// wait in a peer's outbox, full of activations the peer has not
// acknowledged, withholds the grant fail-closed (503 + Retry-After); no
// queued activation is ever dropped to make room, and decisions that
// start nothing still flow. A requestID no activation could carry is
// refused (400) before the shard decides, and withholds nothing.
func TestActivationWithheldWhenItCannotBeQueued(t *testing.T) {
	gw, gts, _ := newGateway(t, Config{Retries: -1}, nil, urls(newShards(t, 2, handoff))...)
	c := server.NewClient(gts.URL, nil, server.WithShedRetries(0))
	clerk := userOn(t, gw, "a", "clerk", 0)
	withheld := func(req server.DecisionRequest) {
		t.Helper()
		_, err := c.Decision(req)
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.RetryAfter <= 0 {
			t.Fatalf("%s in %s = %v, want the grant withheld with 503 + Retry-After", req.Operation, req.Context, err)
		}
	}

	// The PEP chose a requestID too long to carry.
	_, err := c.Decision(taxStep(clerk, "Clerk", "prepareCheck", checkTarget, "p0", strings.Repeat("r", 2048)))
	if apiErr := (*server.APIError)(nil); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("prepareCheck under a 2,048-byte requestID = %v, want 400", err)
	}

	// The first recording decision runs the gateway's activation sync
	// (bootSync), which would deliver what b's outbox holds: it runs
	// before the outbox is filled.
	mgr := userOn(t, gw, "a", "mgr", 0)
	mustDecide(t, c, taxStep(mgr, "Manager", "approve/disapproveCheck", checkTarget, "p8", ""), true)

	// b's outbox fills with activations b never acknowledged, to the last
	// few bytes.
	filled := 0
	for _, width := range []int{900, 1} {
		for ; ; filled++ {
			entry, ok := server.EncodeActivation(fmt.Sprintf("%0*d", width, filled), []string{fmt.Sprintf("P=%d", filled)})
			if !ok {
				t.Fatal("EncodeActivation refused")
			}
			if !outbox(t, gw, "b").Enqueue(entry) {
				break
			}
			if filled > 1<<12 {
				t.Fatal("b's outbox takes activations past its bound")
			}
		}
	}
	withheld(taxStep(clerk, "Clerk", "prepareCheck", checkTarget, "p1", ""))
	if n := outbox(t, gw, "b").Pending(); n != filled {
		t.Fatalf("b's outbox holds %d, want the %d activations it was full of", n, filled)
	}
	if n := gw.metrics.activationWithheld.Load(); n != 1 {
		t.Fatalf("msodgw_ctx_activation_withheld_total = %d, want 1", n)
	}
	mustDecide(t, c, taxStep(mgr, "Manager", "approve/disapproveCheck", checkTarget, "p9", ""), true)
}

// TestJoinSeedsActivations: the join handoff seeds the joiner with the
// union of the members' running instances — both instances with real
// history and instances only activated.
func TestJoinSeedsActivations(t *testing.T) {
	shards := newShards(t, 2, handoff)
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	seedUsers(t, c, 20)
	const activated = "TaxOffice=Leeds, taxRefundProcess=p9"
	if _, err := server.NewClient(shards[0].ts.URL, nil).Activate(context.Background(), []string{activated}); err != nil {
		t.Fatal(err)
	}

	joiner := join(t, gw, "c")
	got := activeOn(t, joiner)
	for _, want := range []string{tellerGrant("").Context, activated} {
		if !slices.Contains(got, want) {
			t.Errorf("joiner missing activation for %s (has %q)", want, got)
		}
	}
}

// switchboard forwards requests, except to the hosts it is told are
// down (a refused connection), and strips the activation acknowledgement
// from the answers of the hosts it is told are behind a proxy.
type switchboard struct {
	mu      sync.Mutex
	down    map[string]bool
	proxied map[string]bool
}

func (s *switchboard) set(host string, down, proxied bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down == nil {
		s.down, s.proxied = map[string]bool{}, map[string]bool{}
	}
	s.down[host], s.proxied[host] = down, proxied
}

func (s *switchboard) RoundTrip(r *http.Request) (*http.Response, error) {
	s.mu.Lock()
	down, proxied := s.down[r.URL.Host], s.proxied[r.URL.Host]
	s.mu.Unlock()
	if down {
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, errors.New("switchboard: connection refused")
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && proxied {
		resp.Header.Del(server.ActivationAckHeader)
	}
	return resp, err
}

func host(sh *testShard) string { return sh.ts.Listener.Addr().String() }

// TestClusterFirstStepWithPeerDown: a FirstStep granted while a peer is
// Down is acked — its activation waits in the peer's outbox. The peer
// turns Up only on a probe the peer itself answered, acknowledging what
// was queued for it (an answer from something in its place is not
// enough), and then grants exactly what one PDP grants.
func TestClusterFirstStepWithPeerDown(t *testing.T) {
	net := &switchboard{}
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{Retries: -1, FailAfter: 1}, net, urls(shards)...)
	o := newOnePDP(t, c)
	b := shards[1]
	clerk, managerB := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "b", "mgr", 0)
	o.decide(taxStep(managerB, "Manager", "approve/disapproveCheck", checkTarget, "p0", ""))

	net.set(host(b), true, false)
	gw.Checker().CheckNow()
	if gw.Checker().Up("b") {
		t.Fatal("b is Up although it answers nothing")
	}
	o.decide(taxStep(clerk, "Clerk", "prepareCheck", checkTarget, "p1", ""))
	if n := gw.metrics.activationWithheld.Load(); n != 0 || outbox(t, gw, "b").Pending() != 1 {
		t.Fatalf("with b Down: %d grants withheld, %d queued for b; want 0 and the activation", n, outbox(t, gw, "b").Pending())
	}

	net.set(host(b), false, true)
	gw.Checker().CheckNow()
	if gw.Checker().Up("b") || outbox(t, gw, "b").Pending() != 1 {
		t.Fatalf("after a probe answered without the acknowledgement: up=%v, %d queued; want Down and the activation kept",
			gw.Checker().Up("b"), outbox(t, gw, "b").Pending())
	}

	net.set(host(b), false, false)
	gw.Checker().CheckNow()
	if !gw.Checker().Up("b") || outbox(t, gw, "b").Pending() != 0 {
		t.Fatalf("after b's own probe answer: up=%v, %d queued; want Up and nothing queued", gw.Checker().Up("b"), outbox(t, gw, "b").Pending())
	}
	o.decide(taxStep(managerB, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""))
	o.decide(taxStep(managerB, "Manager", "combineResults", "http://secret.location.com/results", "p1", ""))
	gw.Checker().CheckNow()
	if got, want := retained(shards[0].store, b.store, shards[2].store), retained(o.ref.Store().(*adi.Store)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the shards retain %q, one PDP %q", got, want)
	}
}

// TestClusterGatewayRestartWithActivationsPending: a gateway acks
// FirstSteps and stops before any request carried their activations to
// the peers. Its queue died with it; the gateway started in its place
// syncs the shards before its first decision — refusing decisions while
// a shard cannot be asked — and from then on every decision is the one
// one PDP makes.
func TestClusterGatewayRestartWithActivationsPending(t *testing.T) {
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	o := newOnePDP(t, c)
	clerk, managerB, managerC := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "b", "mgr", 0), userOn(t, gw, "c", "mgr", 0)
	const processes = 3
	for i := 0; i < processes; i++ {
		o.decide(taxStep(clerk, "Clerk", "prepareCheck", checkTarget, fmt.Sprintf("p%d", i), ""))
	}
	if n := outbox(t, gw, "b").Pending(); n != processes {
		t.Fatalf("%d activations queued for b, want %d", n, processes)
	}
	gw.Close()

	net := &switchboard{}
	net.set(host(shards[2]), true, false)
	next, gts, _ := newGateway(t, Config{Retries: -1}, net, urls(shards)...)
	next.Checker().CheckNow()
	o.c = server.NewClient(gts.URL, nil, server.WithShedRetries(0))

	// c cannot be asked which instances it runs: nothing records.
	_, err := o.c.Decision(taxStep(managerB, "Manager", "approve/disapproveCheck", checkTarget, "p0", ""))
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || !strings.Contains(apiErr.Message, "not yet synced") {
		t.Fatalf("a decision before the sync could reach every shard = %v, want 503", err)
	}
	net.set(host(shards[2]), false, false)
	next.Checker().CheckNow()
	for i := 0; i < processes; i++ {
		instance := fmt.Sprintf("p%d", i)
		for _, m := range []string{managerB, managerC} {
			o.decide(taxStep(m, "Manager", "approve/disapproveCheck", checkTarget, instance, ""))
			o.decide(taxStep(m, "Manager", "combineResults", "http://secret.location.com/results", instance, ""))
		}
	}
	if got, want := retained(shards[0].store, shards[1].store, shards[2].store), retained(o.ref.Store().(*adi.Store)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the shards retain %q, one PDP %q", got, want)
	}
}

// TestBootSyncRunsOnce: decisions that arrive together at a gateway that
// has not synced yet wait for one sync — every shard is asked once — and
// are then all decided.
func TestBootSyncRunsOnce(t *testing.T) {
	net := &countingPaths{}
	gw, _, c := newGateway(t, Config{}, net, urls(newShards(t, 3, handoff))...)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		manager := userOn(t, gw, "a", "mgr", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			decide(t, c, taxStep(manager, "Manager", "approve/disapproveCheck", checkTarget, "p0", ""), true)
		}()
	}
	wg.Wait()
	if n := net.count(http.MethodGet + " " + server.ActivationPath); n != 3 {
		t.Fatalf("%d shards asked for their running instances, want each of the 3 once", n)
	}
}

// TestBootSyncRetriesATransportError: a transport error on one shard's
// GET /v1/ctx/activation during the sync before the first recording
// decision is retried as the decision's own hop is, so the decision is
// answered, not refused with a 503 that sends the PEP away for a second.
func TestBootSyncRetriesATransportError(t *testing.T) {
	rt := fault.NewRoundTripper(nil, 1)
	// Nothing probes: the first request the gateway sends is the sync's.
	rt.InjectAt(1, fault.Trip{Kind: fault.TripReset})
	_, gts, _ := newGateway(t, Config{RetryBackoff: time.Millisecond}, rt, urls(newShards(t, 2, shardSpec{}))...)
	resp, err := server.NewClient(gts.URL, nil, server.WithShedRetries(0)).Decision(chaosReq("u00"))
	if err != nil || !resp.Allowed {
		t.Fatalf("the first decision = %+v, %v; want a grant", resp, err)
	}
	// Two activation GETs, the reset one again, and the decision.
	if n := rt.Requests(); n != 4 {
		t.Fatalf("the gateway sent %d requests, want 4", n)
	}
}

// answerDropper forwards every request and loses a seeded share of the
// answers after the shard has served them.
type answerDropper struct {
	mu   sync.Mutex
	rng  *rand.Rand
	rate float64
}

func (d *answerDropper) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	d.mu.Lock()
	lose := err == nil && d.rng.Float64() < d.rate
	d.mu.Unlock()
	if lose {
		resp.Body.Close()
		return nil, errors.New("answerDropper: connection reset after the request was served")
	}
	return resp, err
}

func (d *answerDropper) setRate(rate float64) {
	d.mu.Lock()
	d.rate = rate
	d.mu.Unlock()
}

// TestClusterChaoticTransportKeepsCarriedActivations: tax processes,
// every instance name run twice, through three shards over a transport
// that resets requests before they leave, loses answers after the shard
// served them, and answers in a shard's place with a 503. Activations are
// carried until acknowledged and closes dropped when in doubt; a shadow
// PDP absorbs every grant the cluster acknowledged, and the cluster never
// grants what the shadow refuses — on the way, and after one clean probe
// round delivered what was left.
func TestClusterChaoticTransportKeepsCarriedActivations(t *testing.T) {
	lossy := &answerDropper{rng: rand.New(rand.NewSource(5))}
	rt := fault.NewRoundTripper(lossy, 3)
	gw, _, c := newGateway(t, Config{Retries: 2, RetryBackoff: 1, FailAfter: 1 << 20, BreakerAfter: 1 << 20}, rt, urls(newShards(t, 3, handoff))...)
	shadow, err := pdp.New(pdp.Config{Policy: bankTaxPolicy(t), Store: adi.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	var script []server.DecisionRequest
	for pass := 0; pass < 2; pass++ {
		tax := workload.NewTax(workload.TaxConfig{Seed: 17, Clerks: 9, Managers: 9, Offices: 2})
		for round := 0; round < 12; round++ {
			open := [][]workload.TaxStep{tax.NextProcess(), tax.NextProcess(), tax.NextProcess()}
			for step := 0; step < len(open[0]); step++ {
				for _, process := range open {
					script = append(script, wireRequest(process[step].Request))
				}
			}
		}
	}

	lossy.setRate(0.1)
	rt.InjectRate(0.15, fault.Trip{Kind: fault.Trip5xx})
	var wrong []string
	granted, failed := 0, 0
	for _, req := range script {
		want, err := shadow.Advise(shadowRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decision(req)
		if err != nil {
			failed++
			continue
		}
		if got.Allowed && !want.Allowed {
			wrong = append(wrong, fmt.Sprintf("%s by %s in %s (%s)", req.Operation, req.User, req.Context, want.Reason()))
		}
		if got.Allowed {
			granted++
			if _, err := shadow.Decide(shadowRequest(req)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(wrong) != 0 {
		t.Fatalf("FALSE GRANTS under a chaotic transport: %q", wrong)
	}
	if failed == 0 || granted < len(script)/2 || gw.metrics.activationFanouts.Load() == 0 {
		t.Fatalf("%d of %d decisions granted, %d failed, %d activations queued; the transport is meant to fail some and the script to open instances",
			granted, len(script), failed, gw.metrics.activationFanouts.Load())
	}

	lossy.setRate(0)
	rt.InjectRate(0, fault.Trip{})
	gw.Checker().CheckNow()
	for _, id := range []string{"a", "b", "c"} {
		if n := outbox(t, gw, id).Pending(); n != 0 {
			t.Fatalf("shard %s: %d entries still queued after a clean probe round", id, n)
		}
	}
	var probes []server.DecisionRequest
	for _, req := range script {
		for _, op := range [][2]string{{"approve/disapproveCheck", checkTarget}, {"combineResults", "http://secret.location.com/results"}} {
			probe := req
			probe.Roles, probe.Operation, probe.Target = []string{"Manager"}, op[0], op[1]
			probes = append(probes, probe)
		}
	}
	if bad := falseGrants(t, c, shadow, probes); len(bad) != 0 {
		t.Fatalf("FALSE GRANTS after the chaos: %q", bad)
	}
}

// hangUp forwards every request. The one decision POST it is armed for
// it forwards whole — the shard serves and commits it — and then hangs
// up the PEP that decision came from; it hands back the answer only if
// the hop's own context is still live, as net/http's Transport does,
// which abandons an exchange whose context ends before the answer is
// read.
type hangUp struct {
	pep atomic.Pointer[context.CancelFunc]
}

func (h *hangUp) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.Method != http.MethodPost || r.URL.Path != server.DecisionPath {
		return resp, err
	}
	if cancel := h.pep.Swap(nil); cancel != nil {
		(*cancel)()
		if err := r.Context().Err(); err != nil {
			resp.Body.Close()
			return nil, err
		}
	}
	return resp, nil
}

// TestClusterPEPHangUpAfterFirstStep: a PEP that hangs up after the
// owner shard committed its FirstStep does not lose the activation. The
// decision runs to its answer under the gateway's own deadline, the
// activation is queued for the peer, and the peer's Manager cannot
// approve twice in the instance the FirstStep started — which it could
// if the peer never learned the instance runs. The hang-up is not the
// shard's failure: it stays Up with its breaker closed.
func TestClusterPEPHangUpAfterFirstStep(t *testing.T) {
	rt := &hangUp{}
	gw, _, c := newGateway(t, Config{FailAfter: 1, BreakerAfter: 1}, rt, urls(newShards(t, 2, handoff))...)
	clerk, managerB := userOn(t, gw, "a", "clerk", 0), userOn(t, gw, "b", "mgr", 0)

	body, err := json.Marshal(taxStep(clerk, "Clerk", "prepareCheck", checkTarget, "p1", ""))
	if err != nil {
		t.Fatal(err)
	}
	pep, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.pep.Store(&cancel)
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, httptest.NewRequest(http.MethodPost, server.DecisionPath, bytes.NewReader(body)).WithContext(pep))
	if pep.Err() == nil {
		t.Fatal("the transport never hung up the PEP")
	}
	if w.Code != http.StatusOK {
		t.Errorf("the FirstStep's answer to the PEP: status %d %s; want 200", w.Code, w.Body.Bytes())
	}
	if n := outbox(t, gw, "b").Pending(); n != 1 {
		t.Errorf("%d activations queued for b, want the FirstStep's", n)
	}
	if !gw.Checker().Up("a") || gw.Breaker().State("a") != BreakerClosed {
		t.Errorf("after the PEP hung up: a up=%v, breaker %v; want Up and closed", gw.Checker().Up("a"), gw.Breaker().State("a"))
	}
	mustDecide(t, c, taxStep(managerB, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""), true)
	mustDecide(t, c, taxStep(managerB, "Manager", "approve/disapproveCheck", checkTarget, "p1", ""), false)
}
