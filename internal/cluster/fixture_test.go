package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/inspect"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/server"
)

// The cluster tests build from one fixture: real shards (newShard), each
// behind the fault middleware below, and one gateway builder
// (newGateway). A scripted shard (recordingShard) stands only for one
// that breaks a rule a real shard keeps.

// bankTaxPolicyXML is the two policies internal/workload's generators
// exercise (workload.BankPolicy, workload.TaxPolicy) with the target
// access policy their requests need, and the management operations.
// bank.example (bankSOA) may assign the four workflow roles, so a
// request can carry its subject as credentials.
const bankTaxPolicyXML = `
<RBACPolicy id="closes-1">
  <RoleList>
    <Role value="Teller"/><Role value="Auditor"/><Role value="Clerk"/><Role value="Manager"/>
    <Role value="RetainedADIController"/>
  </RoleList>
  <RoleAssignmentPolicy>
    <Assignment soa="bank.example" role="Teller"/>
    <Assignment soa="bank.example" role="Auditor"/>
    <Assignment soa="bank.example" role="Clerk"/>
    <Assignment soa="bank.example" role="Manager"/>
  </RoleAssignmentPolicy>
  <TargetAccessPolicy>
    <Grant role="RetainedADIController" operation="purgeUser" target="msod:retainedADI"/>
    <Grant role="RetainedADIController" operation="purgeBefore" target="msod:retainedADI"/>
    <Grant role="RetainedADIController" operation="purgeContext" target="msod:retainedADI"/>
    <Grant role="RetainedADIController" operation="stats" target="msod:retainedADI"/>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
    <Grant role="Auditor" operation="CommitAudit" target="audit"/>
    <Grant role="Clerk" operation="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
    <Grant role="Clerk" operation="confirmCheck" target="http://secret.location.com/audit"/>
    <Grant role="Manager" operation="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
    <Grant role="Manager" operation="combineResults" target="http://secret.location.com/results"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="Teller"/>
        <Role type="e" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
    <MSoDPolicy BusinessContext="TaxOffice=!, taxRefundProcess=!">
      <FirstStep operation="prepareCheck" targetURI="http://www.myTaxOffice.com/Check"/>
      <LastStep operation="confirmCheck" targetURI="http://secret.location.com/audit"/>
      <MMEP ForbiddenCardinality="2">
        <Operation value="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="confirmCheck" target="http://secret.location.com/audit"/>
      </MMEP>
      <MMEP ForbiddenCardinality="2">
        <Operation value="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="combineResults" target="http://secret.location.com/results"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

func bankTaxPolicy(t *testing.T) *policy.RBACPolicy {
	t.Helper()
	pol, err := policy.ParseRBACPolicy([]byte(bankTaxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

var trailKey = []byte("cluster-test-trail-key")

// shardSpec is how a test shard is built. The zero value serves
// bankTaxPolicyXML with an event broker and nothing else.
type shardSpec struct {
	policy   string          // policy XML; bankTaxPolicyXML when empty
	noEvents bool            // no event broker: /v1/events answers 404
	trail    bool            // an HMAC audit trail, in the shard's trailDir
	sentinel time.Duration   // with trail: an integrity sentinel at this interval, not started
	opts     []server.Option // e.g. server.WithHandoff(), server.WithAdmissionLimit
}

// handoff is the spec of a shard served as `msodd -handoff`.
var handoff = shardSpec{opts: []server.Option{server.WithHandoff()}}

// testShard is one real PDP served the way msodd serves it, behind the
// fault middleware.
type testShard struct {
	id       string
	store    *adi.Store
	srv      *server.Server
	ts       *httptest.Server
	trailDir string
	sentinel *inspect.Sentinel
	faults
}

// newShard builds one real shard named id.
func newShard(t *testing.T, id string, spec shardSpec) *testShard {
	t.Helper()
	sh := &testShard{id: id, store: adi.NewStore()}
	pol := bankTaxPolicy(t)
	if spec.policy != "" {
		var err error
		if pol, err = policy.ParseRBACPolicy([]byte(spec.policy)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := pdp.Config{Policy: pol, Store: sh.store}
	opts := append([]server.Option(nil), spec.opts...)
	if !spec.noEvents {
		broker := inspect.NewBroker(64)
		cfg.Observer = func(ev inspect.DecisionEvent) { broker.Publish(ev) }
		opts = append(opts, server.WithEventBroker(broker))
	}
	if spec.trail {
		sh.trailDir = filepath.Join(t.TempDir(), "trail-"+id)
		w, err := audit.NewWriter(sh.trailDir, trailKey, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		cfg.Trail = w
	}
	if spec.sentinel > 0 {
		var err error
		sh.sentinel, err = inspect.NewSentinel(inspect.SentinelConfig{Dir: sh.trailDir, Key: trailKey, Interval: spec.sentinel})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sh.sentinel.Stop)
		opts = append(opts, server.WithSentinel(sh.sentinel, true))
	}
	p, err := pdp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrustAuthority(bankSOA); err != nil {
		t.Fatal(err)
	}
	sh.srv = server.New(p, opts...)
	sh.ts = httptest.NewServer(sh.faults.wrap(sh.srv))
	t.Cleanup(sh.ts.Close)
	return sh
}

// newShards builds n real shards named as newGateway names them.
func newShards(t *testing.T, n int, spec shardSpec) []*testShard {
	t.Helper()
	shards := make([]*testShard, n)
	for i := range shards {
		shards[i] = newShard(t, shardID(i), spec)
	}
	return shards
}

// shardID is the name newGateway gives the i-th shard: a, b, c, …
func shardID(i int) string { return string(rune('a' + i)) }

// urls lists the shards' base URLs, in order.
func urls(shards []*testShard) []string {
	out := make([]string, len(shards))
	for i, sh := range shards {
		out[i] = sh.ts.URL
	}
	return out
}

// newGateway puts the shards at urls, named a, b, c, … in order, behind
// a gateway whose shard traffic goes through transport (nil: the
// gateway's own). Nothing probes in the background: a test delivers
// what is pending, and learns the cluster's policy, with
// gw.Checker().CheckNow(), one health-probe round.
func newGateway(t *testing.T, cfg Config, transport http.RoundTripper, urls ...string) (*Gateway, *httptest.Server, *server.Client) {
	t.Helper()
	for i, u := range urls {
		cfg.Shards = append(cfg.Shards, Shard{ID: shardID(i), BaseURL: u})
	}
	if transport != nil {
		cfg.HTTPClient = &http.Client{Transport: transport}
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	t.Cleanup(func() {
		gts.Close()
		gw.Close()
	})
	return gw, gts, server.NewClient(gts.URL, nil)
}

// bootSynced runs the gateway's activation sync, so the next shard
// request is the first decision's.
func bootSynced(t *testing.T, gw *Gateway) {
	t.Helper()
	if err := gw.bootSync(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// faults is the fault middleware in front of a real shard's handler. It
// logs every decision and advisory that reaches the shard, counts every
// request by path, and it can hold, fail or drop one path's requests, or
// answer the health probe with a 503.
type faults struct {
	mu      sync.Mutex
	rules   map[string]*rule
	down    bool
	decided []server.DecisionRequest
	paths   map[string]int
}

// rule is what the middleware does to one path's requests.
type rule struct {
	release chan struct{} // non-nil: hold each request until closed
	entered chan struct{} // a held request arrived
	pass    int           // let this many through first,
	fail    int           // then fail this many (-1: every one)
	drop    bool          // by losing the connection, not with a 500
}

func (f *faults) rule(path string) *rule {
	if f.rules == nil {
		f.rules = map[string]*rule{}
	}
	if f.rules[path] == nil {
		f.rules[path] = &rule{}
	}
	return f.rules[path]
}

// hold makes every request to path wait, after it has arrived and
// before it is served, until release is called, or until its client
// gives up. Each arrival is sent on entered. The test's cleanup
// releases what it did not.
func (sh *testShard) hold(t *testing.T, path string) (entered <-chan struct{}, release func()) {
	sh.mu.Lock()
	r := sh.rule(path)
	// entered counts more arrivals than any test waits for; past that an
	// arrival goes uncounted rather than waiting.
	r.release, r.entered = make(chan struct{}), make(chan struct{}, 64)
	ch, in := r.release, r.entered
	sh.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	return in, release
}

// arrived waits for a held request to arrive, failing the test after
// ten seconds.
func arrived(t *testing.T, entered <-chan struct{}) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no request arrived to be held")
	}
}

// fail answers path's requests 500 after pass of them were served, n
// times (-1: from then on); fail(path, 0, 0) serves them all again.
func (sh *testShard) fail(path string, pass, n int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rule(path)
	r.pass, r.fail, r.drop = pass, n, false
}

// drop is fail by losing the connection: the gateway sees a transport
// error.
func (sh *testShard) drop(path string, pass, n int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.rule(path)
	r.pass, r.fail, r.drop = pass, n, true
}

// setDown makes the health probe answer 503 (or not).
func (sh *testShard) setDown(down bool) {
	sh.mu.Lock()
	sh.down = down
	sh.mu.Unlock()
}

// requests lists the decisions and advisories that reached the shard,
// in order.
func (sh *testShard) requests() []server.DecisionRequest {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]server.DecisionRequest(nil), sh.decided...)
}

// users lists the subjects of the shard's requests, in order.
func (sh *testShard) users() []string {
	var out []string
	for _, req := range sh.requests() {
		out = append(out, req.RoutingSubject())
	}
	return out
}

// arrivals counts the requests to path that reached the shard.
func (sh *testShard) arrivals(path string) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.paths[path]
}

// held maps each user the shard retains records of to how many.
func (sh *testShard) held() map[string]int {
	out := map[string]int{}
	for _, u := range sh.store.UserIDs() {
		out[string(u)] = len(sh.store.UserRecords(u, bctx.Universal))
	}
	return out
}

func (f *faults) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == server.DecisionPath || r.URL.Path == server.AdvicePath {
			r.Body = &loggedBody{ReadCloser: r.Body, size: r.ContentLength, f: f}
		}
		f.mu.Lock()
		if f.paths == nil {
			f.paths = map[string]int{}
		}
		f.paths[r.URL.Path]++
		down := f.down && r.URL.Path == server.HealthPath
		var release, entered chan struct{}
		failing, drop := false, false
		if rl := f.rules[r.URL.Path]; rl != nil {
			release, entered, drop = rl.release, rl.entered, rl.drop
			switch {
			case rl.pass > 0:
				rl.pass--
			case rl.fail != 0:
				failing = true
				if rl.fail > 0 {
					rl.fail--
				}
			}
		}
		f.mu.Unlock()
		if release != nil || failing {
			// Read, so a held request's context ends when its client
			// gives up, and a failed one is logged.
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		if release != nil {
			select {
			case entered <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
		}
		switch {
		case down:
			server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "down"})
		case failing && drop:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case failing:
			server.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": "refused by the test's middleware"})
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// loggedBody is a decision's or an advisory's body, which the
// middleware logs once it has been read whole (to its declared length,
// or to its end): before the shard answers it, so a test that has the
// answer finds it logged.
type loggedBody struct {
	io.ReadCloser
	buf  bytes.Buffer
	size int64
	f    *faults
}

func (b *loggedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.buf.Write(p[:n])
	if b.f != nil && (err == io.EOF || int64(b.buf.Len()) == b.size) {
		var req server.DecisionRequest
		if server.DecodeDecisionRequest(b.buf.Bytes(), &req) == nil {
			b.f.mu.Lock()
			b.f.decided = append(b.f.decided, req)
			b.f.mu.Unlock()
		}
		b.f = nil
	}
	return n, err
}
