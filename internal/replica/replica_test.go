package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/inspect"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/server"
)

const replicaPolicyXML = `
<RBACPolicy id="replica-test">
  <RoleList>
    <Role value="Teller"/>
    <Role value="Auditor"/>
    <Role value="RetainedADIController"/>
  </RoleList>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
    <Grant role="RetainedADIController" operation="purgeUser" target="msod:retainedADI"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="Teller"/>
        <Role type="e" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

func testPolicy(t *testing.T) *policy.RBACPolicy {
	t.Helper()
	pol, err := policy.ParseRBACPolicy([]byte(replicaPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// newOwner builds an owning shard the way msodd does: PDP + broker +
// HTTP server with the event stream and replica snapshot enabled.
func newOwner(t *testing.T) (*pdp.PDP, *inspect.Broker, *httptest.Server) {
	t.Helper()
	broker := inspect.NewBroker(64)
	p, err := pdp.New(pdp.Config{
		Policy:   testPolicy(t),
		Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(p, server.WithEventBroker(broker)))
	t.Cleanup(ts.Close)
	return p, broker, ts
}

func grant(t *testing.T, p *pdp.PDP, user, role, op, target, ctx string) pdp.Decision {
	t.Helper()
	dec, err := p.Decide(pdp.Request{
		User: rbac.UserID(user), Roles: []rbac.RoleName{rbac.RoleName(role)},
		Operation: rbac.Operation(op), Target: rbac.Object(target),
		Context: bctx.MustParse(ctx),
	})
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// waitConverged blocks until the follower is fresh and caught up with
// the broker's current head.
func waitConverged(t *testing.T, f *Follower, b *inspect.Broker) {
	t.Helper()
	target := b.Seq()
	deadline := time.Now().Add(10 * time.Second)
	for f.Mirror().AppliedSeq() < target || !f.Fresh() {
		if time.Now().After(deadline) {
			t.Fatalf("follower did not converge: applied %d of %d, status %+v",
				f.Mirror().AppliedSeq(), target, f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMirrorReplaysOwnerHistory: feeding the owner's event stream
// through Apply reproduces the owner's retained ADI exactly — grants
// re-commit, denials are skipped but advance the cursor, and
// management purges replay — so advisory answers agree with the owner.
func TestMirrorReplaysOwnerHistory(t *testing.T) {
	pol := testPolicy(t)
	broker := inspect.NewBroker(64)
	p, err := pdp.New(pdp.Config{
		Policy:   pol,
		Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// alice works as Teller (grant), is denied the Auditor switch
	// (MMER), bob audits (grant), then alice's history is purged.
	if dec := grant(t, p, "alice", "Teller", "HandleCash", "till", "Branch=York, Period=2006"); !dec.Allowed {
		t.Fatalf("seed grant denied: %+v", dec)
	}
	if dec := grant(t, p, "alice", "Auditor", "Audit", "ledger", "Branch=York, Period=2006"); dec.Allowed {
		t.Fatalf("MMER violation granted: %+v", dec)
	}
	if dec := grant(t, p, "bob", "Auditor", "Audit", "ledger", "Branch=York, Period=2006"); !dec.Allowed {
		t.Fatalf("bob's audit denied: %+v", dec)
	}
	if _, err := p.Manage(pdp.ManagementRequest{
		User: "root", Roles: []rbac.RoleName{"RetainedADIController"},
		Operation: pdp.OpPurgeUser, TargetUser: "alice",
	}); err != nil {
		t.Fatal(err)
	}

	m, err := NewMirror(pol, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range broker.Recent(inspect.Filter{}, 0) {
		if err := m.Apply(ev); err != nil {
			t.Fatalf("apply seq %d (%s): %v", ev.Seq, ev.Effect, err)
		}
	}
	if m.AppliedSeq() != broker.Seq() {
		t.Errorf("applied seq %d, broker at %d", m.AppliedSeq(), broker.Seq())
	}
	if m.Records() != p.Store().Len() {
		t.Errorf("mirror holds %d records, owner %d", m.Records(), p.Store().Len())
	}
	// Advisory equality after the purge: alice's Teller history is gone,
	// so both the owner and the mirror would now allow her to audit.
	probe := pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Auditor"},
		Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}
	ownerDec, err := p.Advise(probe)
	if err != nil {
		t.Fatal(err)
	}
	mirrorDec, err := m.Advise(probe)
	if err != nil {
		t.Fatal(err)
	}
	if ownerDec.Allowed != mirrorDec.Allowed || !mirrorDec.Allowed {
		t.Errorf("advisory answers diverge after purge replay: owner %v, mirror %v",
			ownerDec.Allowed, mirrorDec.Allowed)
	}
	// And a probe that must deny: bob auditing means bob handling cash
	// violates the MMER, on both sides.
	probe = pdp.Request{
		User: "bob", Roles: []rbac.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}
	ownerDec, _ = p.Advise(probe)
	mirrorDec, _ = m.Advise(probe)
	if ownerDec.Allowed || mirrorDec.Allowed {
		t.Errorf("near-limit probe: owner allowed=%v mirror allowed=%v, want both denied",
			ownerDec.Allowed, mirrorDec.Allowed)
	}
}

// TestMirrorRefusesDivergentEvents: an event whose echoed effects the
// mirror cannot reproduce is refused with ErrDiverged — the mirror
// never silently absorbs state it cannot verify.
func TestMirrorRefusesDivergentEvents(t *testing.T) {
	pol := testPolicy(t)
	m, err := NewMirror(pol, false)
	if err != nil {
		t.Fatal(err)
	}
	good := inspect.DecisionEvent{
		Seq: 1, Effect: inspect.OutcomeGrant, User: "alice", Roles: []string{"Teller"},
		Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=2006",
		Time: time.Unix(1136160000, 0), Recorded: 1,
	}
	// Tampered echo: the owner claims two records from one grant.
	bad := good
	bad.Recorded = 2
	if err := m.Apply(bad); !errors.Is(err, ErrDiverged) {
		t.Errorf("tampered Recorded echo: err = %v, want ErrDiverged", err)
	}
	// A grant the mirror's policy denies (Auditor after Teller) is a
	// divergence too, not a silent skip.
	if err := m.Apply(good); err != nil {
		t.Fatal(err)
	}
	conflicting := inspect.DecisionEvent{
		Seq: 2, Effect: inspect.OutcomeGrant, User: "alice", Roles: []string{"Auditor"},
		Operation: "Audit", Target: "ledger", Context: "Branch=York, Period=2006",
		Time: time.Unix(1136160001, 0), Recorded: 1,
	}
	if err := m.Apply(conflicting); !errors.Is(err, ErrDiverged) {
		t.Errorf("owner-granted MMER violation: err = %v, want ErrDiverged", err)
	}
	// Unknown effects are divergences, and an already-applied sequence
	// number is an idempotent no-op.
	if err := m.Apply(inspect.DecisionEvent{Seq: 3, Effect: "explode"}); !errors.Is(err, ErrDiverged) {
		t.Error("unknown effect accepted")
	}
	before := m.Records()
	if err := m.Apply(good); err != nil || m.Records() != before {
		t.Errorf("re-applying seq 1: err=%v records %d→%d, want no-op", err, before, m.Records())
	}
}

// TestFollowerConvergesAndAdvises: the follower bootstraps from the
// owner's snapshot, tails new events, and its advisory answers match
// the owner's once the lag drains.
func TestFollowerConvergesAndAdvises(t *testing.T) {
	p, broker, ts := newOwner(t)
	grant(t, p, "alice", "Teller", "HandleCash", "till", "Branch=York, Period=2006")

	f, err := New(Config{
		Owner: ts.URL, Policy: testPolicy(t),
		ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitConverged(t, f, broker)
	if got := f.Status().Resyncs; got != 1 {
		t.Errorf("resyncs after bootstrap = %d, want 1", got)
	}

	// New owner decisions stream in and change the mirror's answers.
	grant(t, p, "bob", "Auditor", "Audit", "ledger", "Branch=Leeds, Period=2006")
	waitConverged(t, f, broker)
	probe := pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Auditor"},
		Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}
	ownerDec, err := p.Advise(probe)
	if err != nil {
		t.Fatal(err)
	}
	mirrorDec, err := f.Advise(probe)
	if err != nil {
		t.Fatal(err)
	}
	if ownerDec.Allowed != mirrorDec.Allowed || mirrorDec.Allowed {
		t.Errorf("advisory: owner allowed=%v, replica allowed=%v, want both denied (MMER)",
			ownerDec.Allowed, mirrorDec.Allowed)
	}
	if f.Mirror().Records() != p.Store().Len() {
		t.Errorf("mirror %d records, owner %d", f.Mirror().Records(), p.Store().Len())
	}
}

// TestFollowerStalenessBound: a follower past its staleness bound
// refuses with ErrStale instead of answering from old state, and a
// negative bound disables the check.
func TestFollowerStalenessBound(t *testing.T) {
	p, broker, ts := newOwner(t)
	grant(t, p, "alice", "Teller", "HandleCash", "till", "Branch=York, Period=2006")

	f, err := New(Config{
		Owner: ts.URL, Policy: testPolicy(t), MaxStaleness: time.Nanosecond,
		ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	// Converge on sequence alone — a 1ns bound means Fresh flaps false
	// the instant after contact, which is the point.
	deadline := time.Now().Add(10 * time.Second)
	for f.Mirror().AppliedSeq() < broker.Seq() {
		if time.Now().After(deadline) {
			t.Fatalf("no catch-up: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // guarantee >1ns since last contact
	_, err = f.Advise(pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
	if !errors.Is(err, ErrStale) {
		t.Errorf("stale advise = %v, want ErrStale", err)
	}

	// Unbounded (-1): the same staleness is acceptable by contract.
	f2, err := New(Config{Owner: ts.URL, Policy: testPolicy(t), MaxStaleness: -1,
		ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = f2.Run(ctx) }()
	waitConverged(t, f2, broker)
	time.Sleep(10 * time.Millisecond)
	if !f2.Fresh() {
		t.Error("unbounded follower reports not fresh")
	}
}

// proxy is a kill-switch TCP forwarder between follower and owner, so
// tests can sever and restore the stream without touching either end.
type proxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	reject atomic.Bool
}

func newProxy(t *testing.T, ownerURL string) *proxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{
		ln:     ln,
		target: strings.TrimPrefix(ownerURL, "http://"),
		conns:  make(map[net.Conn]struct{}),
	}
	go p.accept()
	t.Cleanup(func() { ln.Close(); p.sever() })
	return p
}

func (p *proxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *proxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.reject.Load() {
			c.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns[c], p.conns[up] = struct{}{}, struct{}{}
		p.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			_, _ = io.Copy(dst, src)
			dst.Close()
			src.Close()
		}
		go pipe(up, c)
		go pipe(c, up)
	}
}

// sever closes every live connection (and, with reject set, keeps new
// ones from being established).
func (p *proxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
		delete(p.conns, c)
	}
}

// TestFollowerGapForcesResync: while the follower is partitioned, the
// owner's ring rotates past the resume point; on reconnect the 410
// forces a full snapshot resync — never a silent rejoin with a hole.
func TestFollowerGapForcesResync(t *testing.T) {
	pol := testPolicy(t)
	broker := inspect.NewBroker(4) // tiny ring so a short partition gaps
	p, err := pdp.New(pdp.Config{
		Policy:   pol,
		Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(p, server.WithEventBroker(broker)))
	defer ts.Close()
	px := newProxy(t, ts.URL)

	grant(t, p, "u0", "Teller", "HandleCash", "till", "Branch=York, Period=2006")
	f, err := New(Config{
		Owner: px.URL(), Policy: testPolicy(t),
		ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitConverged(t, f, broker)

	// Partition, then publish more events than the ring retains.
	px.reject.Store(true)
	px.sever()
	for i := 1; i <= 8; i++ {
		grant(t, p, fmt.Sprintf("u%d", i), "Teller", "HandleCash", "till", "Branch=York, Period=2006")
	}
	px.reject.Store(false)

	waitConverged(t, f, broker)
	st := f.Status()
	if st.Resyncs < 2 {
		t.Errorf("resyncs = %d, want ≥2 (bootstrap + gap recovery)", st.Resyncs)
	}
	if f.Mirror().Records() != p.Store().Len() {
		t.Errorf("post-gap mirror %d records, owner %d", f.Mirror().Records(), p.Store().Len())
	}
}

// TestFollowerPolicyMismatchIsTerminal: an owner running a different
// policy document cannot be followed — Run returns instead of serving
// answers computed from alien history.
func TestFollowerPolicyMismatchIsTerminal(t *testing.T) {
	_, _, ts := newOwner(t) // owner runs "replica-test"
	otherXML := strings.Replace(replicaPolicyXML, `id="replica-test"`, `id="something-else"`, 1)
	otherPol, err := policy.ParseRBACPolicy([]byte(otherXML))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Owner: ts.URL, Policy: otherPol,
		ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	runErr := f.Run(ctx)
	if runErr == nil || ctx.Err() != nil {
		t.Fatalf("Run = %v (ctx %v), want a prompt policy-mismatch error", runErr, ctx.Err())
	}
	if !strings.Contains(runErr.Error(), "policy") {
		t.Errorf("mismatch error = %v", runErr)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Policy: testPolicy(t)}); err == nil {
		t.Error("missing owner accepted")
	}
	if _, err := New(Config{Owner: "http://x"}); err == nil {
		t.Error("missing policy accepted")
	}
}

// TestReplicaServerContract covers the HTTP surface: a syncing replica
// refuses reads with 503, authoritative traffic always gets 421, and a
// fresh replica stamps every answer with its applied seq and lag.
func TestReplicaServerContract(t *testing.T) {
	p, broker, ts := newOwner(t)
	grant(t, p, "alice", "Teller", "HandleCash", "till", "Branch=York, Period=2006")

	f, err := New(Config{Owner: ts.URL, Policy: testPolicy(t),
		ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(NewServer(f))
	defer rs.Close()

	adviceBody := func() *bytes.Reader {
		b, _ := json.Marshal(server.DecisionRequest{
			User: "alice", Roles: []string{"Auditor"},
			Operation: "Audit", Target: "ledger",
			Context: "Branch=York, Period=2006",
		})
		return bytes.NewReader(b)
	}

	// Before Run: syncing, so reads refuse 503 and health says so.
	resp, err := http.Post(rs.URL+server.AdvicePath, "application/json", adviceBody())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("syncing advice status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("stale refusal carries Retry-After; the caller should fail over, not wait")
	}
	var health map[string]string
	hr, err := http.Get(rs.URL + server.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health["status"] != "replica-syncing" || health["role"] != "replica" {
		t.Errorf("syncing health = %+v", health)
	}

	// Authoritative traffic is misdirected regardless of freshness.
	for _, path := range []string{server.DecisionPath, server.ManagementPath} {
		resp, err := http.Post(rs.URL+path, "application/json", adviceBody())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Errorf("POST %s = %d, want 421", path, resp.StatusCode)
		}
	}

	// Run and converge: advisory answers flow, stamped with seq and lag.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitConverged(t, f, broker)
	resp, err = http.Post(rs.URL+server.AdvicePath, "application/json", adviceBody())
	if err != nil {
		t.Fatal(err)
	}
	var dec server.DecisionResponse
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || dec.Allowed {
		t.Errorf("advice = %d allowed=%v, want 200 denied (MMER)", resp.StatusCode, dec.Allowed)
	}
	seq, err := strconv.ParseUint(resp.Header.Get(ReplicaSeqHeader), 10, 64)
	if err != nil || seq != broker.Seq() {
		t.Errorf("%s = %q, want broker head %d", ReplicaSeqHeader, resp.Header.Get(ReplicaSeqHeader), broker.Seq())
	}
	if resp.Header.Get(ReplicaLagHeader) == "" {
		t.Errorf("no %s header on a replica answer", ReplicaLagHeader)
	}

	// State reads answer from the mirror, stamped the same way.
	sr, err := http.Get(rs.URL + server.StateUsersPath + "alice")
	if err != nil {
		t.Fatal(err)
	}
	var st inspect.UserState
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK || len(st.Records) != 1 {
		t.Errorf("replica user state = %d %+v", sr.StatusCode, st)
	}
	if sr.Header.Get(ReplicaSeqHeader) == "" {
		t.Error("state answer missing replica seq stamp")
	}

	// The event stream is not re-served.
	er, err := http.Get(rs.URL + server.EventsPath)
	if err != nil {
		t.Fatal(err)
	}
	er.Body.Close()
	if er.StatusCode != http.StatusNotFound {
		t.Errorf("replica /v1/events = %d, want 404", er.StatusCode)
	}

	// Metric families are all present.
	mr, err := http.Get(rs.URL + server.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, fam := range []string{
		"msod_replica_lag_seconds", "msod_replica_applied_seq",
		"msod_replica_resyncs_total", "msod_replica_events_applied_total",
		"msod_replica_divergences_total", "msod_replica_syncing",
		"msod_replica_records", "msod_replica_advisories_total",
		"msod_replica_state_queries_total", "msod_replica_stale_refusals_total",
		"msod_replica_authoritative_refusals_total",
	} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("replica metrics missing %s", fam)
		}
	}
}

// TestFollowerDropsClosedInstance: a context instance closed on the
// owner by a close the gateway's request carried (a LastStep granted on
// another shard) is published as a purge event like an administrative
// purge, so the replica's mirror closes it too and stops refusing what
// the owner now allows.
func TestFollowerDropsClosedInstance(t *testing.T) {
	broker := inspect.NewBroker(64)
	p, err := pdp.New(pdp.Config{
		Policy:   testPolicy(t),
		Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(p, server.WithEventBroker(broker), server.WithHandoff()))
	t.Cleanup(ts.Close)
	grant(t, p, "alice", "Teller", "HandleCash", "till", "Branch=York, Period=2006")
	grant(t, p, "bob", "Teller", "HandleCash", "till", "Branch=York, Period=2007")

	f, err := New(Config{
		Owner: ts.URL, Policy: testPolicy(t),
		ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitConverged(t, f, broker)
	probe := pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Auditor"},
		Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}
	if dec, err := f.Advise(probe); err != nil || dec.Allowed {
		t.Fatalf("replica before the close: %+v, %v; want the MMER denial", dec, err)
	}

	entry, ok := server.EncodeClose("last-step-1", []string{"Branch=*, Period=2006"})
	if !ok {
		t.Fatal("EncodeClose refused")
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+server.HealthPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header[server.CloseHeader] = []string{entry}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p.Store().Len() != 1 {
		t.Fatalf("owner holds %d records after the carried close, want Period=2007's one", p.Store().Len())
	}
	waitConverged(t, f, broker)
	if f.Mirror().Records() != 1 {
		t.Fatalf("mirror holds %d records after the owner closed Period=2006, want 1", f.Mirror().Records())
	}
	if dec, err := f.Advise(probe); err != nil || !dec.Allowed {
		t.Fatalf("replica after the close: %+v, %v; want the grant the owner now gives", dec, err)
	}
	if got := f.Status().Resyncs; got != 1 {
		t.Errorf("resyncs = %d, want the bootstrap's 1: the close must replay, not diverge", got)
	}
}

const firstStepPolicyXML = `
<RBACPolicy id="replica-first-step">
  <RoleList><Role value="Clerk"/><Role value="Manager"/></RoleList>
  <TargetAccessPolicy>
    <Grant role="Clerk" operation="prepareCheck" target="check"/>
    <Grant role="Manager" operation="approve" target="check"/>
    <Grant role="Manager" operation="combine" target="results"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="TaxOffice=!, taxRefundProcess=!">
      <FirstStep operation="prepareCheck" targetURI="check"/>
      <MMEP ForbiddenCardinality="2">
        <Operation value="approve" target="check"/>
        <Operation value="combine" target="results"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

// TestFollowerReplaysActivation: an instance the gateway activates on
// the owner (its first step was granted on another shard) is published
// as an activate event, so the mirror records the owner's next step in
// it as the owner does instead of diverging and resyncing; a replica
// bootstrapped after the activation gets it in the snapshot; and a
// handoff release that leaves an instance without records on the owner
// is followed the same way.
func TestFollowerReplaysActivation(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(firstStepPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	broker := inspect.NewBroker(64)
	p, err := pdp.New(pdp.Config{Policy: pol, Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(p, server.WithEventBroker(broker)))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follow := func() *Follower {
		f, err := New(Config{Owner: ts.URL, Policy: pol, ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = f.Run(ctx) }()
		waitConverged(t, f, broker)
		return f
	}
	early := follow()

	const inst = "TaxOffice=Leeds, taxRefundProcess=p1"
	if act, err := server.NewClient(ts.URL, nil).Activate(ctx, []string{inst}); err != nil || act.Added != 1 {
		t.Fatalf("activate = %+v, %v", act, err)
	}
	late := follow()
	if dec := grant(t, p, "m1", "Manager", "approve", "check", inst); !dec.Allowed || dec.MSoD.Recorded != 1 {
		t.Fatalf("approve in the activated instance = %+v, want a recorded grant", dec)
	}
	// p2's first step was taken here by a clerk whose history a handoff
	// then moved away: p2 runs on, and so does the recording.
	const released = "TaxOffice=Leeds, taxRefundProcess=p2"
	grant(t, p, "c1", "Clerk", "prepareCheck", "check", released)
	if eff, err := p.Apply("test", adi.Op{Kind: adi.OpRelease, User: "c1"}); eff.Removed != 1 || err != nil {
		t.Fatalf("release = %+v, %v", eff, err)
	}
	if dec := grant(t, p, "m1", "Manager", "approve", "check", released); !dec.Allowed || dec.MSoD.Recorded != 1 {
		t.Fatalf("approve in the released instance = %+v, want a recorded grant", dec)
	}
	for name, f := range map[string]*Follower{"following": early, "bootstrapped after the activation": late} {
		waitConverged(t, f, broker)
		if st := f.Status(); st.Divergences != 0 || st.Resyncs != 1 {
			t.Errorf("%s replica: %d divergences, %d resyncs; want 0 and the bootstrap's 1", name, st.Divergences, st.Resyncs)
		}
		for _, ctx := range []string{inst, released} {
			probe := pdp.Request{User: "m1", Roles: []rbac.RoleName{"Manager"}, Operation: "combine", Target: "results", Context: bctx.MustParse(ctx)}
			if dec, err := f.Advise(probe); err != nil || dec.Allowed {
				t.Errorf("%s replica advises %+v, %v in %s; want the MMEP denial the owner gives", name, dec, err, ctx)
			}
		}
	}
}

// TestFollowerServesImportedHistory: a resharding handoff's import on
// the owner is published — its release's events, then one import event
// that counts the records without carrying them — so a follower, which
// cannot replay the import event, resyncs on it and then serves the
// imported history as the owner does. It is not a divergence.
func TestFollowerServesImportedHistory(t *testing.T) {
	broker := inspect.NewBroker(64)
	p, err := pdp.New(pdp.Config{Policy: testPolicy(t), Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(p, server.WithHandoff(), server.WithEventBroker(broker)))
	t.Cleanup(ts.Close)
	f, err := New(Config{Owner: ts.URL, Policy: testPolicy(t), ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = f.Run(ctx) }()
	waitConverged(t, f, broker)

	snap := server.ReplicaSnapshot{Policy: p.PolicyID(), Users: []string{"alice"}, Records: []server.SnapshotRecord{{
		User: "alice", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till",
		Context: "Branch=York, Period=2006", Time: time.Unix(1136160000, 0),
	}}}
	if imp, err := server.NewClient(ts.URL, nil).HandoffImport(ctx, snap); err != nil || imp.Records != 1 {
		t.Fatalf("import = %+v, %v", imp, err)
	}
	waitConverged(t, f, broker)
	probe := pdp.Request{User: "alice", Roles: []rbac.RoleName{"Auditor"}, Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=York, Period=2006")}
	if dec, err := f.Advise(probe); err != nil || dec.Allowed {
		t.Fatalf("replica advises %+v, %v after the import; want the MMER denial the imported history gives", dec, err)
	}
	if st := f.Status(); st.Records != 1 || st.Divergences != 0 || st.Resyncs != 2 {
		t.Errorf("replica holds %d records after %d divergences and %d resyncs; want 1, 0 and the bootstrap's and the import's 2",
			st.Records, st.Divergences, st.Resyncs)
	}
}

// TestMirrorFollowsConcurrentOps: decisions and out-of-band ops racing
// on the owner are published in the order the store applied them, so a
// mirror replaying the stream ends with the owner's records and open
// instances. Run it under -race.
func TestMirrorFollowsConcurrentOps(t *testing.T) {
	pol := testPolicy(t)
	epoch := time.Unix(1136160000, 0)
	var events []inspect.DecisionEvent // appended under the owner's commit lock
	owner, err := pdp.New(pdp.Config{Policy: pol, Clock: func() time.Time { return epoch },
		Observer: func(ev inspect.DecisionEvent) {
			ev.Seq = uint64(len(events) + 1)
			events = append(events, ev)
		}})
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"u0", "u1", "u2"}
	ctxName := func(r *rand.Rand) string { return fmt.Sprintf("Branch=B%d, Period=P%d", r.Intn(2), r.Intn(3)) }
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				u := rbac.UserID(users[r.Intn(len(users))])
				if g > 0 { // two deciders
					role, op, target := rbac.RoleName("Teller"), rbac.Operation("HandleCash"), rbac.Object("till")
					if r.Intn(2) == 0 {
						role, op, target = "Auditor", "Audit", "ledger"
					}
					if _, err := owner.Decide(pdp.Request{User: u, Roles: []rbac.RoleName{role}, Operation: op, Target: target,
						Context: bctx.MustParse(ctxName(r))}); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				var op adi.Op
				switch r.Intn(4) {
				case 0:
					op = adi.Op{Kind: adi.OpClose, Bound: bctx.MustParse(fmt.Sprintf("Branch=*, Period=P%d", r.Intn(3)))}
				case 1:
					op = adi.Op{Kind: adi.OpActivate, Bound: bctx.MustParse(ctxName(r))}
				case 2:
					op = adi.Op{Kind: adi.OpRelease, User: u}
				default:
					op = adi.Op{Kind: adi.OpPurgeUser, User: u}
				}
				if _, err := owner.Apply("test", op); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	m, err := NewMirror(pol, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := m.Apply(ev); err != nil {
			t.Fatalf("replaying %+v: %v", ev, err)
		}
	}
	ob := owner.Store().(adi.Browser)
	for _, u := range users {
		if o, r := fmt.Sprint(ob.UserRecords(rbac.UserID(u), bctx.Universal)), fmt.Sprint(m.Browser().UserRecords(rbac.UserID(u), bctx.Universal)); o != r {
			t.Errorf("%s: owner holds %s, the mirror %s", u, o, r)
		}
	}
	if o, r := fmt.Sprint(ob.Instances()), fmt.Sprint(m.Browser().Instances()); o != r {
		t.Errorf("owner has %s open, the mirror %s", o, r)
	}
}
