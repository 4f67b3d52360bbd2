package fault_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/cluster"
	"msod/internal/node"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/server"
)

// The elastic resharding torture: a 2-shard cluster absorbs a seeded
// workload, then scales out to 3 shards while a seeded fault fires in
// the middle of the handoff — the joiner crashes mid-import, a donor
// crashes mid-stream, or the gateway itself restarts from its persisted
// topology. After the chaos the cluster is healed, the join driven to
// completion, and the workload resumed. The invariant checked at every
// acknowledged decision and across a final full probe grid is
// one-sided, matching the paper's fail-closed stance: anything the
// cluster GRANTS, the reference model (internal/refmodel) as a shadow
// that absorbed exactly the acknowledged grants must also grant. The
// cluster may refuse (503) or over-deny during and after the window — a
// commit whose ack was withheld leaves deny-safe extra history — but
// one grant the shadow denies means resharding split or lost someone's
// retained ADI.
//
// One step in six is the policy's LastStep, and traffic keeps flowing
// while the handoff runs and the fault fires: the closes of those
// LastSteps ride whatever the gateway sends next — a decision, the
// donor's export, the joiner's import, a probe of a shard that is dying
// — are queued for the joiner before it owns anything, and are dropped
// when the request carrying them dies. A close lost that way leaves
// records behind (more denials); a close applied twice, or to the wrong
// side of an export, would show up here as a false grant. Every step
// carries a requestID and a step that was not acknowledged is retried
// under it before anything later is sent, as a PEP that must not lose a
// LastStep does: the retry is answered by the replay, closes and all.

// chaosProxy fronts one shard. Arm kills the shard after n more
// requests: that request and all later ones abort at the TCP level
// until Heal. importDelay slows the handoff import so a fault or
// restart can land mid-stream deterministically.
type chaosProxy struct {
	inner       http.Handler
	countdown   atomic.Int64
	dead        atomic.Bool
	importDelay atomic.Int64 // nanoseconds
}

func (p *chaosProxy) Arm(n int)             { p.countdown.Store(int64(n)) }
func (p *chaosProxy) Heal()                 { p.dead.Store(false); p.countdown.Store(-1) }
func (p *chaosProxy) Delay(d time.Duration) { p.importDelay.Store(int64(d)) }

func (p *chaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.countdown.Load() >= 0 && p.countdown.Add(-1) == -1 {
		p.dead.Store(true)
	}
	if p.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if r.URL.Path == server.HandoffImportPath {
		if d := p.importDelay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}
	p.inner.ServeHTTP(w, r)
}

// elasticVictim is one handoff-capable shard behind its chaos proxy.
type elasticVictim struct {
	proxy *chaosProxy
	srv   *httptest.Server
}

// newElasticVictim serves `msodd -policy P -handoff` behind its chaos
// proxy.
func newElasticVictim(t *testing.T, policyPath string) *elasticVictim {
	t.Helper()
	sh, err := node.NewShard(node.Config{Policy: policyPath, Handoff: true}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	proxy := &chaosProxy{inner: sh}
	proxy.Heal()
	srv := httptest.NewServer(proxy)
	t.Cleanup(func() {
		srv.Close()
		if err := sh.Close(); err != nil {
			t.Errorf("close victim: %v", err)
		}
	})
	return &elasticVictim{proxy: proxy, srv: srv}
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// shadowEpoch stamps the shadow's records: nothing in this torture
// purges by age, so one time serves every step.
var shadowEpoch = time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)

// lastStepsAcked counts the torture's acknowledged LastSteps that closed
// an instance, over all seeds: the suite must not pass because the
// schedules stopped drawing any.
var lastStepsAcked atomic.Int64

// The users no step names before the join: the window meets them with
// no history, and the final probe grid covers them.
var (
	firstSeenClerks   = []rbac.UserID{"c4", "c5"}
	firstSeenManagers = []rbac.UserID{"m3", "m4"}
)

// withFirstSeen gives one step in three to a first-seen user of its role.
func withFirstSeen(rng *rand.Rand, steps []tortureStep) []tortureStep {
	for i := range steps {
		if rng.Intn(3) != 0 {
			continue
		}
		if steps[i].role == "Clerk" {
			steps[i].user = firstSeenClerks[rng.Intn(len(firstSeenClerks))]
		} else {
			steps[i].user = firstSeenManagers[rng.Intn(len(firstSeenManagers))]
		}
	}
	return steps
}

// withLastSteps turns one step in every `every` into the LastStep, by a
// manager, of the instance the step was in.
func withLastSteps(rng *rand.Rand, steps []tortureStep, every int) []tortureStep {
	managers := []rbac.UserID{"m0", "m1", "m2"}
	for i := range steps {
		if rng.Intn(every) == 0 {
			steps[i] = tortureStep{user: managers[rng.Intn(len(managers))], role: "Manager",
				op: "archiveCase", tgt: "http://secret.location.com/archive", inst: steps[i].inst}
		}
	}
	return steps
}

func TestElasticReshardTorture(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 8
	}
	t.Cleanup(func() {
		if lastStepsAcked.Load() == 0 {
			t.Error("no schedule had a LastStep that closed an instance acknowledged")
		}
	})
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			elasticTortureOne(t, int64(seed))
		})
	}
}

func elasticTortureOne(t *testing.T, seed int64) {
	pol, err := policy.ParseRBACPolicy([]byte(torturePolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	policyPath := filepath.Join(t.TempDir(), "policy.xml")
	if err := os.WriteFile(policyPath, []byte(torturePolicyXML), 0o600); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))

	victims := map[string]*elasticVictim{
		"shard-a": newElasticVictim(t, policyPath),
		"shard-b": newElasticVictim(t, policyPath),
	}
	// newGateway boots `msodgw -shards … -state-file F` as msodgw does:
	// once the state file exists, it wins over the shard list. The
	// periodic probe is an hour apart; the torture runs probe rounds
	// itself.
	gwCfg := node.GatewayConfig{
		Shards: []cluster.Shard{
			{ID: "shard-a", BaseURL: victims["shard-a"].srv.URL},
			{ID: "shard-b", BaseURL: victims["shard-b"].srv.URL},
		},
		Retries:        -1,
		FailAfter:      1,
		Probe:          time.Hour,
		StateFile:      filepath.Join(t.TempDir(), "topology.json"),
		HandoffTimeout: 10 * time.Second,
	}
	newGateway := func() (*cluster.Gateway, *httptest.Server) {
		gw, err := node.NewGateway(gwCfg, quiet)
		if err != nil {
			t.Fatal(err)
		}
		return gw, httptest.NewServer(gw)
	}
	gw, gwSrv := newGateway()
	closed := false
	t.Cleanup(func() {
		if !closed {
			gwSrv.Close()
			gw.Close()
		}
	})

	// The shadow sees exactly the acknowledged decisions, on state no
	// fault can touch.
	shadow := newShadow(t, pol)

	c := server.NewClient(gwSrv.URL, nil)
	wire := func(s tortureStep) server.DecisionRequest {
		return server.DecisionRequest{
			User: string(s.user), Roles: []string{string(s.role)},
			Operation: string(s.op), Target: string(s.tgt),
			Context: "TaxOffice=Leeds, taxRefundProcess=" + s.inst,
		}
	}
	// numbered gives the i-th step of a stage the requestID every attempt
	// at it is sent under.
	numbered := func(stage string, i int, s tortureStep) server.DecisionRequest {
		req := wire(s)
		req.RequestID = fmt.Sprintf("seed%d-%s-%d", seed, stage, i)
		return req
	}
	// check holds one acknowledged decision against the shadow. The
	// shadow absorbs what the cluster granted and nothing else: a step the
	// cluster refused — rightly, or over-denying on leftovers of a close
	// it lost — was not performed, and a shadow that recorded it anyway
	// would later deny, on history that does not exist, what the cluster
	// rightly grants.
	check := func(stage string, s tortureStep, vd server.DecisionResponse) {
		t.Helper()
		if !vd.Allowed {
			return
		}
		sd, serr := shadow.Evaluate(s.shadowed(), shadowEpoch)
		if serr != nil {
			t.Fatalf("%s: shadow decide: %v", stage, serr)
		}
		if !sd.Grant {
			t.Fatalf("%s: FALSE GRANT: cluster granted %s %s for %s/%s, shadow denies (%s in %s holding %d)",
				stage, s.op, s.inst, s.user, s.role, sd.Rule, sd.Bound, sd.Held)
		}
		if len(vd.Closed) > 0 {
			lastStepsAcked.Add(1)
		}
	}
	// decideAcked routes one step, riding out fail-closed 503s (the
	// handoff window, a dying shard before its probe) like a PEP would.
	decideAcked := func(stage string, req server.DecisionRequest) server.DecisionResponse {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := c.Decision(req)
			if err == nil {
				return resp
			}
			var apiErr *server.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != 503 || time.Now().After(deadline) {
				t.Fatalf("%s: decision %+v: %v", stage, req, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	runSteps := func(stage string, steps []tortureStep, from int) {
		t.Helper()
		for i := from; i < len(steps); i++ {
			check(stage, steps[i], decideAcked(stage, numbered(stage, i, steps[i])))
		}
	}

	steps := withLastSteps(rng, genWorkload(rng, 80), 6)
	runSteps("pre-reshard", steps[:40], 0)

	// Scale out under fire: shard-c joins while a seeded fault fires.
	joiner := newElasticVictim(t, policyPath)
	victims["shard-c"] = joiner
	kind := rng.Intn(3)
	switch kind {
	case 0: // joiner crashes a few requests into the handoff
		joiner.proxy.Arm(1 + rng.Intn(3))
	case 1: // a donor crashes mid-stream (or mid-anything — still chaos)
		donor := []string{"shard-a", "shard-b"}[rng.Intn(2)]
		victims[donor].proxy.Arm(1 + rng.Intn(4))
	case 2: // the gateway itself restarts from its persisted topology
		joiner.proxy.Delay(150 * time.Millisecond)
	}

	postJoin := func() *http.Response {
		payload, _ := json.Marshal(cluster.ClusterMemberRequest{ID: "shard-c", URL: joiner.srv.URL})
		resp, err := http.Post(gwSrv.URL+cluster.ClusterJoinPath, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	status := func() cluster.ClusterStatusResponse {
		t.Helper()
		resp, err := http.Get(gwSrv.URL + cluster.ClusterStatusPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st cluster.ClusterStatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for status().Handoff != nil {
			if time.Now().After(deadline) {
				t.Fatal("handoff never settled")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp := postJoin()
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	// Traffic during the handoff, one step in three by a user first seen
	// here and one in three a LastStep, each sent once: the first step
	// that is not acknowledged — its user in transit, its shard dying —
	// stops the flow, and is where it resumes, under the same requestID,
	// once the cluster has healed.
	during := withLastSteps(rng, withFirstSeen(rng, genWorkload(rng, 16)), 3)
	impatient := server.NewClient(gwSrv.URL, nil, server.WithShedRetries(0))
	resumeAt := 0
	for ; resumeAt < len(during); resumeAt++ {
		vd, err := impatient.Decision(numbered("mid-reshard", resumeAt, during[resumeAt]))
		if err != nil {
			break
		}
		check("mid-reshard", during[resumeAt], vd)
	}
	if kind == 2 {
		// Kill the gateway while the handoff is (very likely still)
		// running, then boot a fresh one from the persisted topology —
		// the msodgw restart path. Close aborts the in-flight handoff;
		// whichever side of cutover it died on, the state file names an
		// owner that actually holds every user's history.
		gwSrv.Close()
		gw.Close()
		if _, err := cluster.LoadTopology(gwCfg.StateFile); err != nil {
			t.Fatal(err) // the restart must boot from the persisted topology
		}
		gw, gwSrv = newGateway()
		t.Cleanup(func() { gwSrv.Close(); gw.Close() })
		closed = true
		c = server.NewClient(gwSrv.URL, nil)
		joiner.proxy.Delay(0)
	} else {
		settle()
	}

	// Heal every victim and drive the join to completion. A fault that
	// landed after cutover leaves shard-c already active; otherwise the
	// retried join streams the (replace-semantics) import again.
	for _, v := range victims {
		v.proxy.Heal()
	}
	gw.Checker().CheckNow()
	deadline := time.Now().Add(15 * time.Second)
	for {
		settle()
		st := status()
		if s, ok := st.Shards["shard-c"]; ok && s.Lifecycle == "active" && s.InRing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard-c never became active: %+v", status())
		}
		if resp := postJoin(); resp != nil {
			resp.Body.Close()
		}
	}

	// The rest of the interrupted traffic, the post-reshard workload,
	// then the full probe grid: one cluster grant the shadow denies is a
	// reshard-induced false grant.
	runSteps("mid-reshard", during, resumeAt)
	runSteps("post-reshard", steps[40:], 0)
	for _, probe := range append(probeSteps(), probeGrid(firstSeenClerks, firstSeenManagers)...) {
		vd, verr := c.Advice(wire(probe))
		if verr != nil {
			t.Fatalf("probe %+v: %v", probe, verr)
		}
		sd, serr := shadow.Peek(probe.shadowed())
		if serr != nil {
			t.Fatalf("probe %+v: shadow: %v", probe, serr)
		}
		if vd.Allowed && !sd.Grant {
			t.Fatalf("probe %+v: FALSE GRANT after reshard torture (kind %d): cluster grants, shadow denies (%s in %s holding %d)",
				probe, kind, sd.Rule, sd.Bound, sd.Held)
		}
	}
}
