package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"msod/internal/credential"
	"msod/internal/inspect"
	"msod/internal/server"
)

// elasticStub is a scripted PDP shard with an in-memory retained-ADI
// store and the full handoff surface: decisions record one retained
// record per grant, and the handoff endpoints export/import/release
// per-user subtrees the way a real -handoff msodd does.
type elasticStub struct {
	ts     *httptest.Server
	policy string

	mu      sync.Mutex
	records map[string][]server.SnapshotRecord
	// active mirrors the real server's activations: context instances
	// marked running by the gateway's activation sync.
	active map[string]bool

	importDelay time.Duration
	importFail  bool
	// importOK, with importFail, lets that many imports succeed first —
	// a handoff that fails part-way, leaving the imports it did make.
	importOK      int
	releaseFail   bool
	snapshotDelay time.Duration
	decisionDelay time.Duration
}

func newElasticStub(t *testing.T, policy string) *elasticStub {
	t.Helper()
	s := &elasticStub{policy: policy, records: map[string][]server.SnapshotRecord{}, active: map[string]bool{}}
	mux := http.NewServeMux()
	decide := func(record bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req server.DecisionRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.mu.Lock()
			delay := s.decisionDelay
			s.mu.Unlock()
			if delay > 0 {
				time.Sleep(delay)
			}
			user := req.RoutingSubject()
			if record {
				s.mu.Lock()
				s.records[user] = append(s.records[user], server.SnapshotRecord{
					User: user, Operation: string(req.Operation), Target: req.Target,
					Context: req.Context, Time: time.Now(),
				})
				s.mu.Unlock()
			}
			json.NewEncoder(w).Encode(server.DecisionResponse{Allowed: true, Phase: "granted", User: user})
		}
	}
	mux.HandleFunc(server.DecisionPath, decide(true))
	mux.HandleFunc(server.AdvicePath, decide(false))
	mux.HandleFunc(server.HealthPath, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "policy": s.policy})
	})
	mux.HandleFunc(server.HandoffUsersPath, func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		resp := server.HandoffUsersResponse{Policy: s.policy, Users: []string{}}
		for u := range s.records {
			resp.Users = append(resp.Users, u)
		}
		s.mu.Unlock()
		sort.Strings(resp.Users)
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc(server.ActivationPath, func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch r.Method {
		case http.MethodGet:
			set := map[string]bool{}
			for _, recs := range s.records {
				for _, rec := range recs {
					if rec.Context != "" {
						set[rec.Context] = true
					}
				}
			}
			for c := range s.active {
				set[c] = true
			}
			resp := server.ActivationResponse{Contexts: []string{}}
			for c := range set {
				resp.Contexts = append(resp.Contexts, c)
			}
			sort.Strings(resp.Contexts)
			json.NewEncoder(w).Encode(resp)
		case http.MethodPost:
			var req server.ActivationRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resp := server.ActivationResponse{Contexts: req.Contexts}
			for _, c := range req.Contexts {
				if !s.active[c] {
					s.active[c] = true
					resp.Added++
				}
			}
			json.NewEncoder(w).Encode(resp)
		default:
			http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc(server.ReplicaSnapshotPath, func(w http.ResponseWriter, r *http.Request) {
		if s.snapshotDelay > 0 {
			time.Sleep(s.snapshotDelay)
		}
		users := strings.Split(r.URL.Query().Get("users"), ",")
		snap := server.ReplicaSnapshot{Policy: s.policy, Users: users}
		s.mu.Lock()
		for _, u := range users {
			snap.Records = append(snap.Records, s.records[u]...)
		}
		s.mu.Unlock()
		json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc(server.HandoffImportPath, func(w http.ResponseWriter, r *http.Request) {
		if s.importDelay > 0 {
			time.Sleep(s.importDelay)
		}
		s.mu.Lock()
		fail := s.importFail && s.importOK <= 0
		s.importOK--
		s.mu.Unlock()
		if fail {
			http.Error(w, `{"error":"import refused by test"}`, http.StatusInternalServerError)
			return
		}
		var snap server.ReplicaSnapshot
		if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := server.HandoffImportResponse{Users: len(snap.Users)}
		s.mu.Lock()
		for _, u := range snap.Users {
			resp.Replaced += len(s.records[u])
			delete(s.records, u)
		}
		for _, rec := range snap.Records {
			s.records[rec.User] = append(s.records[rec.User], rec)
			resp.Records++
		}
		s.mu.Unlock()
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc(server.HandoffReleasePath, func(w http.ResponseWriter, r *http.Request) {
		if s.releaseFail {
			http.Error(w, `{"error":"release refused by test"}`, http.StatusInternalServerError)
			return
		}
		var req server.HandoffReleaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := server.HandoffReleaseResponse{Users: len(req.Users)}
		s.mu.Lock()
		for _, u := range req.Users {
			resp.Purged += len(s.records[u])
			delete(s.records, u)
		}
		s.mu.Unlock()
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc(server.StateContextsPath, func(w http.ResponseWriter, r *http.Request) {
		// Every user this shard holds records for, owner or not — what a
		// real shard's introspection reports after a failed handoff.
		st := inspect.ContextState{Context: strings.TrimPrefix(r.URL.Path, server.StateContextsPath)}
		for u := range s.userSet() {
			st.Users = append(st.Users, inspect.UserState{User: u})
		}
		json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc(server.MetricsPath, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "# HELP msod_decisions_total x\n# TYPE msod_decisions_total counter\nmsod_decisions_total 0")
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

// users lists the users the stub currently holds records for.
func (s *elasticStub) userSet() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.records))
	for u, recs := range s.records {
		out[u] = len(recs)
	}
	return out
}

// newElasticCluster wires n elastic stubs behind a gateway.
func newElasticCluster(t *testing.T, n int, cfg Config) (*Gateway, *httptest.Server, []*elasticStub) {
	t.Helper()
	shards := make([]*elasticStub, n)
	for i := range shards {
		shards[i] = newElasticStub(t, "pol-1")
		cfg.Shards = append(cfg.Shards, Shard{ID: fmt.Sprintf("shard%02d", i), BaseURL: shards[i].ts.URL})
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gw.Checker().CheckNow()
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)
	return gw, gts, shards
}

// seedUsers records one grant per user through the gateway, so each
// lands on (and is retained by) its ring owner.
func seedUsers(t *testing.T, gts *httptest.Server, n int) []string {
	t.Helper()
	c := server.NewClient(gts.URL, nil)
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("user-%03d", i)
		if _, err := c.Decision(server.DecisionRequest{User: users[i], Operation: "op", Target: "t", Context: "P=1"}); err != nil {
			t.Fatalf("seed %s: %v", users[i], err)
		}
	}
	return users
}

// waitHandoff polls until no handoff is running, returning the final
// status of the last one.
func waitHandoff(t *testing.T, gw *Gateway) HandoffStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		current, last := gw.handoffSnapshot()
		if current == nil {
			if last == nil {
				t.Fatal("no handoff ever ran")
			}
			return *last
		}
		if time.Now().After(deadline) {
			t.Fatalf("handoff stuck in phase %s", current.Phase)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitPhase polls until the running handoff reaches the given phase.
func waitPhase(t *testing.T, gw *Gateway, phase string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		current, _ := gw.handoffSnapshot()
		if current != nil && current.Phase == phase {
			return
		}
		if current == nil || time.Now().After(deadline) {
			t.Fatalf("handoff never reached phase %s (current %+v)", phase, current)
		}
		time.Sleep(time.Millisecond)
	}
}

// postJSON posts a JSON body and returns the response.
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClusterJoinMovesOwnershipLive: a third shard joins a live
// two-shard cluster; exactly the users the ring reassigns move to it,
// their donors release them, and routing follows the new ring.
func TestClusterJoinMovesOwnershipLive(t *testing.T) {
	gw, gts, shards := newElasticCluster(t, 2, Config{})
	users := seedUsers(t, gts, 60)

	joiner := newElasticStub(t, "pol-1")
	next := gw.ring.Clone()
	next.Add("shard02")
	moving := map[string]bool{}
	for _, u := range users {
		if owner, _ := next.Lookup(u); owner == "shard02" {
			moving[u] = true
		}
	}
	if len(moving) == 0 {
		t.Fatal("test topology moves no users; grow the seed set")
	}

	resp := postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard02", URL: joiner.ts.URL})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := json.Marshal(resp.Header)
		t.Fatalf("join status %d %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	last := waitHandoff(t, gw)
	if last.Phase != PhaseDone {
		t.Fatalf("handoff ended %s: %s", last.Phase, last.Error)
	}
	if last.Users != len(moving) || last.Moved != len(moving) {
		t.Fatalf("handoff moved %d/%d users, want %d", last.Moved, last.Users, len(moving))
	}

	got := joiner.userSet()
	for u := range moving {
		if got[u] == 0 {
			t.Errorf("moved user %s has no records on the joiner", u)
		}
	}
	for i, s := range shards {
		for u := range s.userSet() {
			if moving[u] {
				t.Errorf("donor shard%02d still holds released user %s", i, u)
			}
		}
	}
	if n := gw.ring.Size(); n != 3 {
		t.Fatalf("ring has %d members after join, want 3", n)
	}
	if state, _ := gw.shardState("shard02"); state != ShardActive {
		t.Fatalf("joiner state %s, want active", state)
	}
	// Routing now serves moved users from the joiner.
	c := server.NewClient(gts.URL, nil)
	for u := range moving {
		if _, err := c.Decision(server.DecisionRequest{User: u, Operation: "op2", Target: "t", Context: "P=1"}); err != nil {
			t.Fatalf("post-join decision for %s: %v", u, err)
		}
		break
	}
}

// TestClusterJoinRefusesInTransitUsers: during the streaming window a
// moving user's decision is refused 503 + Retry-After, whether it names
// the user or carries a credential the user holds — but a
// credential-bearing decision for a user who stays on the donor, and an
// advisory for an unaffected user, still flow.
func TestClusterJoinRefusesInTransitUsers(t *testing.T) {
	gw, gts, _ := newElasticCluster(t, 2, Config{})
	users := seedUsers(t, gts, 60)

	joiner := newElasticStub(t, "pol-1")
	joiner.importDelay = 400 * time.Millisecond
	next := gw.ring.Clone()
	next.Add("shard02")
	var movingUser, stayingUser, donor string
	for _, u := range users {
		if owner, _ := next.Lookup(u); owner == "shard02" && movingUser == "" {
			movingUser = u
			donor, _ = gw.ring.Lookup(u)
		}
	}
	for _, u := range users {
		cur, _ := gw.ring.Lookup(u)
		nxt, _ := next.Lookup(u)
		if cur == donor && nxt == cur {
			stayingUser = u
			break
		}
	}
	if movingUser == "" || stayingUser == "" {
		t.Fatalf("topology gave no moving/staying pair (moving=%q staying=%q)", movingUser, stayingUser)
	}
	// A user with no history moves too: the next ring, not the donors'
	// user lists, says who is in transit.
	var firstSeen string
	for i := 0; firstSeen == ""; i++ {
		u := fmt.Sprintf("fresh%04d", i)
		if owner, _ := next.Lookup(u); owner == "shard02" {
			firstSeen = u
		}
	}

	resp := postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard02", URL: joiner.ts.URL})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitPhase(t, gw, PhaseStreaming)

	// A decision for an in-transit user — one with history, or one first
	// seen in the window — fails closed with a retry hint.
	for _, u := range []string{movingUser, firstSeen} {
		dr := postJSON(t, gts.URL+server.DecisionPath,
			server.DecisionRequest{User: u, Operation: "op", Target: "t", Context: "P=1"})
		if dr.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("in-transit decision for %s: status %d, want 503", u, dr.StatusCode)
		}
		if dr.Header.Get("Retry-After") == "" {
			t.Errorf("in-transit refusal for %s has no Retry-After", u)
		}
		dr.Body.Close()
	}

	// A credential-bearing decision is routed on its holder: the moving
	// user's fails closed like the user's own, and the staying user's is
	// decided on the donor (every shard refuses one that
	// resolves to another subject, so it cannot commit for the mover).
	for _, tc := range []struct {
		holder string
		want   int
	}{{movingUser, http.StatusServiceUnavailable}, {stayingUser, http.StatusOK}} {
		cr := postJSON(t, gts.URL+server.DecisionPath, server.DecisionRequest{
			Credentials: []credential.Credential{{Holder: tc.holder}},
			Operation:   "op", Target: "t", Context: "P=1",
		})
		cr.Body.Close()
		if cr.StatusCode != tc.want {
			t.Fatalf("credential decision held by %s: status %d, want %d", tc.holder, cr.StatusCode, tc.want)
		}
		if tc.want == http.StatusServiceUnavailable && cr.Header.Get("Retry-After") == "" {
			t.Errorf("in-transit credential refusal has no Retry-After")
		}
	}

	// An advisory for the in-transit user is refused before it is sent
	// (its donor's history may be mid-copy, or mid-purge after release),
	// but an unaffected user's advisory keeps flowing through the window.
	ar := postJSON(t, gts.URL+server.AdvicePath,
		server.DecisionRequest{User: movingUser, Operation: "op", Target: "t", Context: "P=1"})
	if ar.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("in-transit advisory status %d, want 503", ar.StatusCode)
	}
	ar.Body.Close()
	sr := postJSON(t, gts.URL+server.AdvicePath,
		server.DecisionRequest{User: stayingUser, Operation: "op", Target: "t", Context: "P=1"})
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("unaffected advisory during handoff status %d, want 200", sr.StatusCode)
	}
	sr.Body.Close()

	// Management is refused during the window.
	mr := postJSON(t, gts.URL+server.ManagementPath,
		server.ManagementWireRequest{User: "admin", Roles: []string{"RetainedADIController"}, Operation: "stats"})
	if mr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("management during handoff status %d, want 503", mr.StatusCode)
	}
	if mr.Header.Get("Retry-After") == "" {
		t.Error("management refusal has no Retry-After")
	}
	mr.Body.Close()

	if last := waitHandoff(t, gw); last.Phase != PhaseDone {
		t.Fatalf("handoff ended %s: %s", last.Phase, last.Error)
	}
	// After the window everything flows again.
	c := server.NewClient(gts.URL, nil)
	if _, err := c.Decision(server.DecisionRequest{User: movingUser, Operation: "op", Target: "t", Context: "P=1"}); err != nil {
		t.Fatalf("post-handoff decision: %v", err)
	}
}

// TestClusterDrainThenRemove: draining a shard moves all of its users
// to the survivors, marks it gone, and only then is removal allowed.
func TestClusterDrainThenRemove(t *testing.T) {
	gw, gts, shards := newElasticCluster(t, 3, Config{})
	seedUsers(t, gts, 60)
	leaving := shards[1].userSet()
	if len(leaving) == 0 {
		t.Fatal("shard01 owns no users; grow the seed set")
	}

	// Removing an active shard is refused outright.
	rr := postJSON(t, gts.URL+ClusterRemovePath, ClusterMemberRequest{ID: "shard01"})
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("remove of active shard status %d, want 409", rr.StatusCode)
	}
	rr.Body.Close()

	resp := postJSON(t, gts.URL+ClusterDrainPath, ClusterMemberRequest{ID: "shard01"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	resp.Body.Close()
	last := waitHandoff(t, gw)
	if last.Phase != PhaseDone {
		t.Fatalf("drain ended %s: %s", last.Phase, last.Error)
	}
	if got := len(shards[1].userSet()); got != 0 {
		t.Fatalf("drained shard still holds %d users", got)
	}
	if state, _ := gw.shardState("shard01"); state != ShardGone {
		t.Fatalf("drained shard state %s, want gone", state)
	}
	if n := gw.ring.Size(); n != 2 {
		t.Fatalf("ring has %d members after drain, want 2", n)
	}
	// Every user the leaver held lives on exactly one survivor now.
	for u := range leaving {
		owner, ok := gw.ring.Lookup(u)
		if !ok {
			t.Fatalf("user %s lost its owner", u)
		}
		var holder *elasticStub
		if owner == "shard00" {
			holder = shards[0]
		} else {
			holder = shards[2]
		}
		if holder.userSet()[u] == 0 {
			t.Errorf("user %s missing on new owner %s", u, owner)
		}
	}

	rr = postJSON(t, gts.URL+ClusterRemovePath, ClusterMemberRequest{ID: "shard01"})
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("remove of gone shard status %d, want 200", rr.StatusCode)
	}
	rr.Body.Close()
	if _, ok := gw.shardState("shard01"); ok {
		t.Fatal("removed shard still tracked")
	}
}

// TestClusterJoinFailureLeavesDonorsAuthoritative: a joiner whose
// import fails aborts the handoff pre-cutover — ring unchanged, donors
// untouched, shard parked in "joining" — and a retry with a healthy
// joiner succeeds.
func TestClusterJoinFailureLeavesDonorsAuthoritative(t *testing.T) {
	gw, gts, shards := newElasticCluster(t, 2, Config{})
	users := seedUsers(t, gts, 40)
	before := make([]map[string]int, len(shards))
	for i, s := range shards {
		before[i] = s.userSet()
	}

	joiner := newElasticStub(t, "pol-1")
	joiner.importFail = true
	resp := postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard02", URL: joiner.ts.URL})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	resp.Body.Close()
	last := waitHandoff(t, gw)
	if last.Phase != PhaseFailed {
		t.Fatalf("handoff ended %s, want failed", last.Phase)
	}
	if n := gw.ring.Size(); n != 2 {
		t.Fatalf("ring has %d members after failed join, want 2", n)
	}
	if state, _ := gw.shardState("shard02"); state != ShardJoining {
		t.Fatalf("failed joiner state %s, want joining", state)
	}
	for i, s := range shards {
		got := s.userSet()
		if len(got) != len(before[i]) {
			t.Errorf("donor shard%02d record set changed across failed join: %d -> %d", i, len(before[i]), len(got))
		}
	}
	// Decisions still flow from the donors.
	c := server.NewClient(gts.URL, nil)
	if _, err := c.Decision(server.DecisionRequest{User: users[0], Operation: "op", Target: "t", Context: "P=1"}); err != nil {
		t.Fatalf("decision after failed join: %v", err)
	}

	// Retry with the fault cleared: the same shard ID joins for real.
	joiner.importFail = false
	resp = postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard02", URL: joiner.ts.URL})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry join status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if last := waitHandoff(t, gw); last.Phase != PhaseDone {
		t.Fatalf("retried join ended %s: %s", last.Phase, last.Error)
	}
	if n := gw.ring.Size(); n != 3 {
		t.Fatalf("ring has %d members after retried join, want 3", n)
	}
}

// contextStateUsers asks the gateway for a context's state and returns
// the users listed, in the order served.
func contextStateUsers(t *testing.T, gts *httptest.Server) []string {
	t.Helper()
	st, err := server.NewClient(gts.URL, nil).ContextState("P=1")
	if err != nil {
		t.Fatalf("context state: %v", err)
	}
	users := make([]string, len(st.Users))
	for i, u := range st.Users {
		users[i] = u.User
	}
	return users
}

// TestClusterContextStateAfterFailedHandoff: a handoff that fails after
// some imports leaves copies of users' history on shards that do not
// own them — on the parked joiner after a failed join, on an active
// recipient after a failed drain. Context state lists each user once,
// from its ring owner, and a dead joiner awaiting removal does not fail
// the query cluster-wide (management already ignores it).
func TestClusterContextStateAfterFailedHandoff(t *testing.T) {
	gw, gts, shards := newElasticCluster(t, 3, Config{FailAfter: 1})
	users := seedUsers(t, gts, 60)
	sort.Strings(users)
	want := strings.Join(users, ",")

	// Failed join: the first donor's users reach the joiner, the second
	// import fails.
	joiner := newElasticStub(t, "pol-1")
	joiner.importFail, joiner.importOK = true, 1
	resp := postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard03", URL: joiner.ts.URL})
	resp.Body.Close()
	if last := waitHandoff(t, gw); last.Phase != PhaseFailed {
		t.Fatalf("join ended %s, want failed", last.Phase)
	}
	if len(joiner.userSet()) == 0 {
		t.Fatal("joiner imported nothing; the test needs a partly imported joiner")
	}
	if got := strings.Join(contextStateUsers(t, gts), ","); got != want {
		t.Errorf("after failed join: users = %s\nwant each once: %s", got, want)
	}

	// The parked joiner dies. It owns nothing, so the query still answers.
	joiner.ts.Close()
	gw.Checker().CheckNow()
	if gw.Checker().Up("shard03") {
		t.Fatal("dead joiner still Up")
	}
	if got := strings.Join(contextStateUsers(t, gts), ","); got != want {
		t.Errorf("with the dead joiner tracked: users = %s\nwant each once: %s", got, want)
	}

	// Failed drain: one active recipient imports, the next refuses.
	for _, s := range shards[1:] {
		s.mu.Lock()
		s.importFail, s.importOK = true, 0
		s.mu.Unlock()
	}
	shards[1].mu.Lock()
	shards[1].importFail = false
	shards[1].mu.Unlock()
	resp = postJSON(t, gts.URL+ClusterDrainPath, ClusterMemberRequest{ID: "shard00"})
	resp.Body.Close()
	if last := waitHandoff(t, gw); last.Phase != PhaseFailed {
		t.Fatalf("drain ended %s, want failed", last.Phase)
	}
	copies := 0
	for u := range shards[1].userSet() {
		if owner, _ := gw.ShardFor(u); owner != "shard01" {
			copies++
		}
	}
	if copies == 0 {
		t.Fatal("no stale copies on the active recipient; the test needs a partly imported drain")
	}
	if got := strings.Join(contextStateUsers(t, gts), ","); got != want {
		t.Errorf("after failed drain: users = %s\nwant each once: %s", got, want)
	}
}

// TestClusterConcurrentHandoffRefused: the single handoff slot turns a
// second join/drain into a 409.
func TestClusterConcurrentHandoffRefused(t *testing.T) {
	gw, gts, _ := newElasticCluster(t, 2, Config{})
	seedUsers(t, gts, 30)
	joiner := newElasticStub(t, "pol-1")
	joiner.importDelay = 300 * time.Millisecond
	resp := postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard02", URL: joiner.ts.URL})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitPhase(t, gw, PhaseStreaming)

	dr := postJSON(t, gts.URL+ClusterDrainPath, ClusterMemberRequest{ID: "shard00"})
	if dr.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent drain status %d, want 409", dr.StatusCode)
	}
	dr.Body.Close()
	other := newElasticStub(t, "pol-1")
	jr := postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard03", URL: other.ts.URL})
	if jr.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent join status %d, want 409", jr.StatusCode)
	}
	jr.Body.Close()
	if last := waitHandoff(t, gw); last.Phase != PhaseDone {
		t.Fatalf("handoff ended %s: %s", last.Phase, last.Error)
	}
}

// TestClusterJoinPolicyMismatchRefused: a shard running a different
// policy never enters the topology.
func TestClusterJoinPolicyMismatchRefused(t *testing.T) {
	gw, gts, _ := newElasticCluster(t, 2, Config{})
	alien := newElasticStub(t, "pol-OTHER")
	resp := postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard02", URL: alien.ts.URL})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched join status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	if _, ok := gw.shardState("shard02"); ok {
		t.Fatal("mismatched shard entered the topology")
	}
}

// TestClusterAdmissionPoolSheds: with MaxInflight=1 a second concurrent
// request is shed with 503 + Retry-After, and the shed surfaces in the
// admission metrics.
func TestClusterAdmissionPoolSheds(t *testing.T) {
	gw, gts, shards := newElasticCluster(t, 1, Config{MaxInflight: 1})
	// A slow advisory holds the only token while a second request
	// arrives.
	shardsDelay(shards, 300*time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := postJSON(t, gts.URL+server.AdvicePath,
			server.DecisionRequest{User: "holder", Operation: "op", Target: "t", Context: "P=1"})
		r.Body.Close()
	}()
	// Wait until the slow request holds the token.
	deadline := time.Now().Add(2 * time.Second)
	for gw.admission.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the admission token")
		}
		time.Sleep(time.Millisecond)
	}
	r := postJSON(t, gts.URL+server.AdvicePath,
		server.DecisionRequest{User: "second", Operation: "op", Target: "t", Context: "P=1"})
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second concurrent request status %d, want 503", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("admission shed has no Retry-After")
	}
	r.Body.Close()
	<-done
	if gw.admission.Shed() == 0 {
		t.Error("admission pool recorded no shed")
	}
}

// shardsDelay injects a decision delay into every elastic stub.
func shardsDelay(shards []*elasticStub, d time.Duration) {
	for _, s := range shards {
		s.mu.Lock()
		s.decisionDelay = d
		s.mu.Unlock()
	}
}

// TestClusterTopologyPersistence: membership changes land in the state
// file, and LoadTopology normalises transient states on the way back.
func TestClusterTopologyPersistence(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "topology.json")
	gw, gts, _ := newElasticCluster(t, 2, Config{StatePath: statePath})
	seedUsers(t, gts, 30)
	joiner := newElasticStub(t, "pol-1")
	resp := postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard02", URL: joiner.ts.URL})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if last := waitHandoff(t, gw); last.Phase != PhaseDone {
		t.Fatalf("handoff ended %s: %s", last.Phase, last.Error)
	}

	persisted, err := LoadTopology(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != 3 {
		t.Fatalf("persisted %d shards, want 3", len(persisted))
	}
	for _, s := range persisted {
		if s.State != ShardActive.String() {
			t.Errorf("persisted shard %s state %s, want active", s.ID, s.State)
		}
	}

	// Transient states normalise on load: syncing restarts as joining
	// (its imports are unreachable), draining as active (it never cut
	// over and is still the authority).
	raw := `{"savedAt":"2026-01-01T00:00:00Z","shards":[
	  {"id":"a","url":"http://a","state":"syncing"},
	  {"id":"b","url":"http://b","state":"draining"},
	  {"id":"c","url":"http://c","state":"active"}]}`
	crash := filepath.Join(dir, "crash.json")
	if err := os.WriteFile(crash, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadTopology(crash)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "joining", "b": "active", "c": "active"}
	for _, s := range restored {
		if s.State != want[s.ID] {
			t.Errorf("restored shard %s state %s, want %s", s.ID, s.State, want[s.ID])
		}
	}

	// A restored topology boots the gateway with only authoritative
	// shards on the ring.
	gw2, err := New(Config{
		Shards: []Shard{{ID: "a", BaseURL: "http://a"}, {ID: "b", BaseURL: "http://b"}, {ID: "c", BaseURL: "http://c"}},
		States: map[string]ShardState{"a": ShardJoining, "b": ShardActive, "c": ShardActive},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	if n := gw2.ring.Size(); n != 2 {
		t.Fatalf("restored ring has %d members, want 2 (joining shard owns nothing)", n)
	}
	if _, err := New(Config{
		Shards: []Shard{{ID: "a", BaseURL: "http://a"}},
		States: map[string]ShardState{"a": ShardJoining},
	}); err == nil {
		t.Fatal("gateway booted with no authoritative shard")
	}
}

// TestClusterStatusEndpoint: GET /v1/cluster reflects membership,
// lifecycle and the admission pool.
func TestClusterStatusEndpoint(t *testing.T) {
	_, gts, _ := newElasticCluster(t, 2, Config{MaxInflight: 7})
	resp, err := http.Get(gts.URL + ClusterStatusPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 2 {
		t.Fatalf("status lists %d members, want 2", len(st.Members))
	}
	if st.Admission.Capacity != 7 {
		t.Fatalf("admission capacity %d, want 7", st.Admission.Capacity)
	}
	if len(st.RingVersion) != 16 {
		t.Fatalf("ring version %q not a 64-bit hex hash", st.RingVersion)
	}
	for id, sh := range st.Shards {
		if sh.Lifecycle != "active" || !sh.InRing {
			t.Errorf("shard %s lifecycle=%s inRing=%v, want active ring member", id, sh.Lifecycle, sh.InRing)
		}
	}
}

// TestClusterMetricsFamilies: the gateway scrape carries the new ring,
// admission and handoff families.
func TestClusterMetricsFamilies(t *testing.T) {
	_, gts, _ := newElasticCluster(t, 2, Config{MaxInflight: 3})
	resp, err := http.Get(gts.URL + server.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, fam := range []string{
		"msodgw_ring_epoch", "msodgw_ring_members", "msodgw_ring_shard_state",
		"msodgw_admission_capacity", "msodgw_admission_inflight", "msodgw_admission_shed_total",
		"msod_handoff_active", "msod_handoff_age_seconds", "msod_handoff_started_total",
		"msod_handoff_completed_total", "msod_handoff_failed_total",
		"msod_handoff_refusals_total", "msod_handoff_users_moved_total",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("metrics scrape missing family %s", fam)
		}
	}
}
