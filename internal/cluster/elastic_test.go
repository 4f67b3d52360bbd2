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
	"testing"
	"time"

	"msod/internal/credential"
	"msod/internal/server"
)

// tellerGrant is a Teller's cash handling in York's period p1: granted,
// and retained as one record.
func tellerGrant(user string) server.DecisionRequest {
	return server.DecisionRequest{User: user, Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"}
}

// seedUsers records one grant per user through the gateway, so each
// lands on (and is retained by) its ring owner.
func seedUsers(t *testing.T, c *server.Client, n int) []string {
	t.Helper()
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("user-%03d", i)
		mustDecide(t, c, tellerGrant(users[i]), true)
	}
	return users
}

// waitHandoff waits for the running handoff, if any, to end, and
// returns the final status of the last one. A handoff still running
// after 10 s fails the test with the phase it is stuck in: a request
// held in the fault middleware and never released, say.
func waitHandoff(t *testing.T, gw *Gateway) HandoffStatus {
	t.Helper()
	done := make(chan struct{})
	go func() {
		gw.handoffWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		if current, _ := gw.handoffSnapshot(); current != nil {
			t.Fatalf("handoff stuck in phase %s", current.Phase)
		}
		t.Fatal("handoff runner did not return")
	}
	_, last := gw.handoffSnapshot()
	if last == nil {
		t.Fatal("no handoff ever ran")
	}
	return *last
}

// member sends the gateway a join (of the shard at url), drain or
// remove of shard id, and returns the status it answered.
func member(t *testing.T, gw *Gateway, path, id, url string) int {
	t.Helper()
	body, err := json.Marshal(ClusterMemberRequest{ID: id, URL: url})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w.Code
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
	shards := newShards(t, 2, handoff)
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	users := seedUsers(t, c, 60)

	joiner := newShard(t, "c", handoff)
	next := gw.ring.Clone()
	next.Add("c")
	moving := map[string]bool{}
	for _, u := range users {
		if owner, _ := next.Lookup(u); owner == "c" {
			moving[u] = true
		}
	}
	if len(moving) == 0 {
		t.Fatal("test topology moves no users; grow the seed set")
	}

	if code := member(t, gw, ClusterJoinPath, "c", joiner.ts.URL); code != http.StatusAccepted {
		t.Fatalf("join status %d", code)
	}
	last := waitHandoff(t, gw)
	if last.Phase != PhaseDone {
		t.Fatalf("handoff ended %s: %s", last.Phase, last.Error)
	}
	if last.Users != len(moving) || last.Moved != len(moving) {
		t.Fatalf("handoff moved %d/%d users, want %d", last.Moved, last.Users, len(moving))
	}

	got := joiner.held()
	for u := range moving {
		if got[u] == 0 {
			t.Errorf("moved user %s has no records on the joiner", u)
		}
	}
	for _, s := range shards {
		for u := range s.held() {
			if moving[u] {
				t.Errorf("donor %s still holds released user %s", s.id, u)
			}
		}
	}
	if n := gw.ring.Size(); n != 3 {
		t.Fatalf("ring has %d members after join, want 3", n)
	}
	if state, _ := gw.shardState("c"); state != ShardActive {
		t.Fatalf("joiner state %s, want active", state)
	}
	// Routing now serves moved users from the joiner.
	for u := range moving {
		mustDecide(t, c, tellerGrant(u), true)
		if n := len(joiner.users()); n != 1 {
			t.Fatalf("the joiner decided %d requests after the join, want the moved user's one", n)
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
	gw, gts, c := newGateway(t, Config{}, nil, urls(newShards(t, 2, handoff))...)
	users := seedUsers(t, c, 60)

	joiner := newShard(t, "c", handoff)
	importing, release := joiner.hold(t, server.HandoffImportPath)
	next := gw.ring.Clone()
	next.Add("c")
	var movingUser, stayingUser, donor string
	for _, u := range users {
		if owner, _ := next.Lookup(u); owner == "c" && movingUser == "" {
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
		if owner, _ := next.Lookup(u); owner == "c" {
			firstSeen = u
		}
	}

	if code := member(t, gw, ClusterJoinPath, "c", joiner.ts.URL); code != http.StatusAccepted {
		t.Fatalf("join status %d", code)
	}
	arrived(t, importing) // streaming: the first import waits at the joiner

	// A decision for an in-transit user — one with history, or one first
	// seen in the window — fails closed with a retry hint.
	for _, u := range []string{movingUser, firstSeen} {
		dr := postJSON(t, gts.URL+server.DecisionPath, tellerGrant(u))
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
		req := tellerGrant("")
		req.Roles, req.Credentials = nil, []credential.Credential{roleCredential(t, tc.holder, "Teller")}
		cr := postJSON(t, gts.URL+server.DecisionPath, req)
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
	ar := postJSON(t, gts.URL+server.AdvicePath, tellerGrant(movingUser))
	if ar.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("in-transit advisory status %d, want 503", ar.StatusCode)
	}
	ar.Body.Close()
	sr := postJSON(t, gts.URL+server.AdvicePath, tellerGrant(stayingUser))
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

	release()
	if last := waitHandoff(t, gw); last.Phase != PhaseDone {
		t.Fatalf("handoff ended %s: %s", last.Phase, last.Error)
	}
	// After the window everything flows again.
	mustDecide(t, c, tellerGrant(movingUser), true)
}

// TestClusterDrainThenRemove: draining a shard moves all of its users
// to the survivors, marks it gone, and only then is removal allowed.
func TestClusterDrainThenRemove(t *testing.T) {
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	seedUsers(t, c, 60)
	leaving := shards[1].held()
	if len(leaving) == 0 {
		t.Fatal("b owns no users; grow the seed set")
	}

	// Removing an active shard is refused outright.
	if code := member(t, gw, ClusterRemovePath, "b", ""); code != http.StatusConflict {
		t.Fatalf("remove of active shard status %d, want 409", code)
	}
	if code := member(t, gw, ClusterDrainPath, "b", ""); code != http.StatusAccepted {
		t.Fatalf("drain status %d", code)
	}
	last := waitHandoff(t, gw)
	if last.Phase != PhaseDone {
		t.Fatalf("drain ended %s: %s", last.Phase, last.Error)
	}
	if got := len(shards[1].held()); got != 0 {
		t.Fatalf("drained shard still holds %d users", got)
	}
	if state, _ := gw.shardState("b"); state != ShardGone {
		t.Fatalf("drained shard state %s, want gone", state)
	}
	if n := gw.ring.Size(); n != 2 {
		t.Fatalf("ring has %d members after drain, want 2", n)
	}
	// Every user the leaver held lives on exactly one survivor now.
	for u, records := range leaving {
		owner, ok := gw.ring.Lookup(u)
		if !ok {
			t.Fatalf("user %s lost its owner", u)
		}
		holder := shards[0]
		if owner == "c" {
			holder = shards[2]
		}
		if holder.held()[u] != records {
			t.Errorf("user %s missing on new owner %s", u, owner)
		}
	}

	if code := member(t, gw, ClusterRemovePath, "b", ""); code != http.StatusOK {
		t.Fatalf("remove of gone shard status %d, want 200", code)
	}
	if _, ok := gw.shardState("b"); ok {
		t.Fatal("removed shard still tracked")
	}
}

// TestClusterJoinFailureLeavesDonorsAuthoritative: a joiner whose
// import fails aborts the handoff pre-cutover — ring unchanged, donors
// untouched, shard parked in "joining" — and a retry with a healthy
// joiner succeeds.
func TestClusterJoinFailureLeavesDonorsAuthoritative(t *testing.T) {
	shards := newShards(t, 2, handoff)
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	users := seedUsers(t, c, 40)
	before := make([]map[string]int, len(shards))
	for i, s := range shards {
		before[i] = s.held()
	}

	joiner := newShard(t, "c", handoff)
	joiner.fail(server.HandoffImportPath, 0, -1)
	if code := member(t, gw, ClusterJoinPath, "c", joiner.ts.URL); code != http.StatusAccepted {
		t.Fatalf("join status %d", code)
	}
	last := waitHandoff(t, gw)
	if last.Phase != PhaseFailed {
		t.Fatalf("handoff ended %s, want failed", last.Phase)
	}
	if n := gw.ring.Size(); n != 2 {
		t.Fatalf("ring has %d members after failed join, want 2", n)
	}
	if state, _ := gw.shardState("c"); state != ShardJoining {
		t.Fatalf("failed joiner state %s, want joining", state)
	}
	for i, s := range shards {
		if got := s.held(); fmt.Sprint(got) != fmt.Sprint(before[i]) {
			t.Errorf("donor %s record set changed across failed join: %v -> %v", s.id, before[i], got)
		}
	}
	// Decisions still flow from the donors.
	mustDecide(t, c, tellerGrant(users[0]), true)

	// Retry with the fault cleared: the same shard ID joins for real.
	joiner.fail(server.HandoffImportPath, 0, 0)
	if code := member(t, gw, ClusterJoinPath, "c", joiner.ts.URL); code != http.StatusAccepted {
		t.Fatalf("retry join status %d", code)
	}
	if last := waitHandoff(t, gw); last.Phase != PhaseDone {
		t.Fatalf("retried join ended %s: %s", last.Phase, last.Error)
	}
	if n := gw.ring.Size(); n != 3 {
		t.Fatalf("ring has %d members after retried join, want 3", n)
	}
}

// stateFile reads each shard's state as the gateway's state file holds
// it, before LoadTopology normalises anything.
func stateFile(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Shards []struct{ ID, State string }
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, s := range file.Shards {
		out[s.ID] = s.State
	}
	return out
}

// TestClusterJoinAndDrainRestoreStateWhenPlanFails: a donor refuses to
// list its users, so the plan of a join, or of a drain, fails before
// anything moved. The ring is unchanged, and the shard is back where it
// was — the joiner joining, the leaver active — in memory, on
// GET /v1/cluster and in the state file.
func TestClusterJoinAndDrainRestoreStateWhenPlanFails(t *testing.T) {
	for _, tc := range []struct {
		kind, path, shard string
		want              ShardState
	}{
		{HandoffJoin, ClusterJoinPath, "c", ShardJoining},
		{HandoffDrain, ClusterDrainPath, "a", ShardActive},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			shards := newShards(t, 2, handoff)
			statePath := filepath.Join(t.TempDir(), "topology.json")
			gw, gts, c := newGateway(t, Config{StatePath: statePath}, nil, urls(shards)...)
			seedUsers(t, c, 10)
			shards[0].fail(server.HandoffUsersPath, 0, -1)
			url := ""
			if tc.kind == HandoffJoin {
				url = newShard(t, tc.shard, handoff).ts.URL
			}
			if code := member(t, gw, tc.path, tc.shard, url); code != http.StatusAccepted {
				t.Fatalf("%s status %d", tc.kind, code)
			}
			if last := waitHandoff(t, gw); last.Phase != PhaseFailed || !strings.Contains(last.Error, "plan") {
				t.Fatalf("%s ended %s (%s), want a failed plan", tc.kind, last.Phase, last.Error)
			}
			if n := gw.ring.Size(); n != 2 {
				t.Fatalf("ring has %d members, want the 2 it had", n)
			}
			if state, _ := gw.shardState(tc.shard); state != tc.want {
				t.Errorf("in memory %s is %s, want %s", tc.shard, state, tc.want)
			}
			var st ClusterStatusResponse
			resp, err := http.Get(gts.URL + ClusterStatusPath)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if got := st.Shards[tc.shard].Lifecycle; got != tc.want.String() {
				t.Errorf("GET /v1/cluster has %s %s, want %s", tc.shard, got, tc.want)
			}
			if got := stateFile(t, statePath)[tc.shard]; got != tc.want.String() {
				t.Errorf("the state file has %s %s, want %s", tc.shard, got, tc.want)
			}
		})
	}
}

// contextStateUsers asks the gateway for a context's state and returns
// the users listed, in the order served.
func contextStateUsers(t *testing.T, c *server.Client) []string {
	t.Helper()
	st, err := c.ContextState(tellerGrant("").Context)
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
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{FailAfter: 1}, nil, urls(shards)...)
	users := seedUsers(t, c, 60)
	sort.Strings(users)
	want := strings.Join(users, ",")

	// Failed join: the first donor's users reach the joiner, the second
	// import fails.
	joiner := newShard(t, "d", handoff)
	joiner.fail(server.HandoffImportPath, 1, -1)
	member(t, gw, ClusterJoinPath, "d", joiner.ts.URL)
	if last := waitHandoff(t, gw); last.Phase != PhaseFailed {
		t.Fatalf("join ended %s, want failed", last.Phase)
	}
	if len(joiner.held()) == 0 {
		t.Fatal("joiner imported nothing; the test needs a partly imported joiner")
	}
	if got := strings.Join(contextStateUsers(t, c), ","); got != want {
		t.Errorf("after failed join: users = %s\nwant each once: %s", got, want)
	}

	// The parked joiner dies. It owns nothing, so the query still answers.
	joiner.ts.Close()
	gw.Checker().CheckNow()
	if gw.Checker().Up("d") {
		t.Fatal("dead joiner still Up")
	}
	if got := strings.Join(contextStateUsers(t, c), ","); got != want {
		t.Errorf("with the dead joiner tracked: users = %s\nwant each once: %s", got, want)
	}

	// Failed drain: one active recipient imports, the next refuses.
	shards[2].fail(server.HandoffImportPath, 0, -1)
	member(t, gw, ClusterDrainPath, "a", "")
	if last := waitHandoff(t, gw); last.Phase != PhaseFailed {
		t.Fatalf("drain ended %s, want failed", last.Phase)
	}
	copies := 0
	for u := range shards[1].held() {
		if owner, _ := gw.ShardFor(u); owner != "b" {
			copies++
		}
	}
	if copies == 0 {
		t.Fatal("no stale copies on the active recipient; the test needs a partly imported drain")
	}
	if got := strings.Join(contextStateUsers(t, c), ","); got != want {
		t.Errorf("after failed drain: users = %s\nwant each once: %s", got, want)
	}
}

// TestClusterConcurrentHandoffRefused: the single handoff slot turns a
// second join/drain into a 409.
func TestClusterConcurrentHandoffRefused(t *testing.T) {
	gw, _, c := newGateway(t, Config{}, nil, urls(newShards(t, 2, handoff))...)
	seedUsers(t, c, 30)
	joiner := newShard(t, "c", handoff)
	importing, release := joiner.hold(t, server.HandoffImportPath)
	if code := member(t, gw, ClusterJoinPath, "c", joiner.ts.URL); code != http.StatusAccepted {
		t.Fatalf("join status %d", code)
	}
	arrived(t, importing)

	if code := member(t, gw, ClusterDrainPath, "a", ""); code != http.StatusConflict {
		t.Fatalf("concurrent drain status %d, want 409", code)
	}
	other := newShard(t, "d", handoff)
	if code := member(t, gw, ClusterJoinPath, "d", other.ts.URL); code != http.StatusConflict {
		t.Fatalf("concurrent join status %d, want 409", code)
	}
	release()
	if last := waitHandoff(t, gw); last.Phase != PhaseDone {
		t.Fatalf("handoff ended %s: %s", last.Phase, last.Error)
	}
}

// TestClusterJoinPolicyMismatchRefused: a shard running a different
// policy never enters the topology.
func TestClusterJoinPolicyMismatchRefused(t *testing.T) {
	gw, _, _ := newGateway(t, Config{}, nil, urls(newShards(t, 2, handoff))...)
	gw.Checker().CheckNow() // learns the cluster's policy
	alien := newShard(t, "c", shardSpec{policy: strings.Replace(bankTaxPolicyXML, `id="closes-1"`, `id="other"`, 1)})
	if code := member(t, gw, ClusterJoinPath, "c", alien.ts.URL); code != http.StatusConflict {
		t.Fatalf("mismatched join status %d, want 409", code)
	}
	if _, ok := gw.shardState("c"); ok {
		t.Fatal("mismatched shard entered the topology")
	}
}

// TestClusterAdmissionPoolSheds: with MaxInflight=1 a second concurrent
// request is shed with 503 + Retry-After, and the shed surfaces in the
// admission metrics.
func TestClusterAdmissionPoolSheds(t *testing.T) {
	shard := newShard(t, "a", shardSpec{})
	gw, gts, _ := newGateway(t, Config{MaxInflight: 1}, nil, shard.ts.URL)
	// A held advisory keeps the only token while a second request
	// arrives.
	holding, release := shard.hold(t, server.AdvicePath)
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(tellerGrant("holder"))
		if r, err := http.Post(gts.URL+server.AdvicePath, "application/json", bytes.NewReader(body)); err != nil {
			t.Error(err)
		} else {
			r.Body.Close()
		}
	}()
	arrived(t, holding)
	r := postJSON(t, gts.URL+server.AdvicePath, tellerGrant("second"))
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second concurrent request status %d, want 503", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("admission shed has no Retry-After")
	}
	r.Body.Close()
	release()
	<-done
	if gw.admission.Shed() == 0 {
		t.Error("admission pool recorded no shed")
	}
}

// TestClusterTopologyPersistence: membership changes land in the state
// file, and LoadTopology normalises transient states on the way back.
func TestClusterTopologyPersistence(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "topology.json")
	gw, _, c := newGateway(t, Config{StatePath: statePath}, nil, urls(newShards(t, 2, handoff))...)
	seedUsers(t, c, 30)
	joiner := newShard(t, "c", handoff)
	if code := member(t, gw, ClusterJoinPath, "c", joiner.ts.URL); code != http.StatusAccepted {
		t.Fatalf("join status %d", code)
	}
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
	_, gts, _ := newGateway(t, Config{MaxInflight: 7}, nil, urls(newShards(t, 2, handoff))...)
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
	_, gts, _ := newGateway(t, Config{MaxInflight: 3}, nil, urls(newShards(t, 2, handoff))...)
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
