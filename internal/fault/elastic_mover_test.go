package fault_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"msod/internal/bctx"
	"msod/internal/cluster"
	"msod/internal/node"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/refmodel"
	"msod/internal/server"
)

// A handoff moves the keys whose owner its next ring changes, and a key
// with no history yet is one of them: a user first seen in the window
// whose Teller step the old owner recorded would reach the new owner,
// after cutover, with none of it — and be granted the Auditor step one
// PDP denies. The gateway refuses every such key until cutover, so the
// step is retried at the owner that keeps it.

const quickstartPolicy = "../../policies/quickstart.xml"

// TestElasticJoinRefusesAFirstSeenMover: `msodd -handoff` shards a and b
// behind a gateway; c joins. A user with no history whose next owner is
// c is refused 503 during the join's streaming, while a first-seen user
// who stays is decided; after the join the mover's Teller step is
// granted on c and its Auditor step in the same period denied.
func TestElasticJoinRefusesAFirstSeenMover(t *testing.T) {
	firstSeenMover(t, []string{"shard-a", "shard-b"}, cluster.ClusterJoinPath)
}

// TestElasticDrainRefusesAFirstSeenMover is the drain's twin: shards a,
// b and c; c drains, and the mover is a user with no history that c
// owns until cutover.
func TestElasticDrainRefusesAFirstSeenMover(t *testing.T) {
	firstSeenMover(t, []string{"shard-a", "shard-b", "shard-c"}, cluster.ClusterDrainPath)
}

// firstSeenMover runs the scenario over the members, joining or
// draining shard-c through path.
func firstSeenMover(t *testing.T, members []string, path string) {
	raw, err := os.ReadFile(quickstartPolicy)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.ParseRBACPolicy(raw)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := refmodel.New(pol.MSoD)
	if err != nil {
		t.Fatal(err)
	}

	victims := map[string]*elasticVictim{}
	var shards []cluster.Shard
	for _, id := range members {
		victims[id] = newElasticVictim(t, quickstartPolicy)
		shards = append(shards, cluster.Shard{ID: id, BaseURL: victims[id].srv.URL})
	}
	if _, ok := victims["shard-c"]; !ok {
		victims["shard-c"] = newElasticVictim(t, quickstartPolicy)
	}
	gw, err := node.NewGateway(node.GatewayConfig{Shards: shards, Retries: -1, Probe: time.Hour, HandoffTimeout: 10 * time.Second}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	gwSrv := httptest.NewServer(gw)
	t.Cleanup(func() { gwSrv.Close(); gw.Close() })

	next := cluster.NewRing(0)
	for _, id := range members {
		next.Add(id)
	}
	change := cluster.ClusterMemberRequest{ID: "shard-c"}
	if path == cluster.ClusterJoinPath {
		next.Add("shard-c")
		change.URL = victims["shard-c"].srv.URL
	} else {
		next.Remove("shard-c")
	}
	moves := func(u string) bool {
		cur, _ := gw.ShardFor(u)
		to, _ := next.Lookup(u)
		return cur != to
	}
	user := func(prefix string, moving bool) string {
		for i := 0; i < 10000; i++ {
			if u := fmt.Sprintf("%s%03d", prefix, i); moves(u) == moving {
				return u
			}
		}
		t.Fatalf("no %s user whose owner the change moves=%v", prefix, moving)
		return ""
	}
	// seeded has history that the handoff streams (and whose import is
	// slowed), so the window stays open; mover and stayer have none.
	seeded, mover, stayer := user("seeded", true), user("mover", true), user("stayer", false)

	const period = "Branch=York, Period=p1"
	teller := func(u string) server.DecisionRequest {
		return server.DecisionRequest{User: u, Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: period}
	}
	auditor := func(u string) server.DecisionRequest {
		return server.DecisionRequest{User: u, Roles: []string{"Auditor"}, Operation: "Audit", Target: "ledger", Context: period}
	}
	// acked holds a decision the cluster answered to one PDP, which
	// records what the cluster granted.
	acked := func(when string, req server.DecisionRequest, got server.DecisionResponse) {
		t.Helper()
		want, err := shadow.Evaluate(refmodel.Request{User: rbac.UserID(req.User), Roles: []rbac.RoleName{rbac.RoleName(req.Roles[0])},
			Operation: rbac.Operation(req.Operation), Target: rbac.Object(req.Target), Context: bctx.MustParse(req.Context)}, shadowEpoch)
		if err != nil {
			t.Fatal(err)
		}
		if got.Allowed && !want.Grant {
			t.Errorf("%s: FALSE GRANT: the cluster grants %s to %s, one PDP denies it (%s in %s holding %d)",
				when, req.Operation, req.User, want.Rule, want.Bound, want.Held)
		}
	}
	c := server.NewClient(gwSrv.URL, nil)
	decide := func(when string, req server.DecisionRequest) {
		t.Helper()
		got, err := c.Decision(req)
		if err != nil {
			t.Fatalf("%s: %s for %s: %v", when, req.Operation, req.User, err)
		}
		acked(when, req, got)
	}
	decide("before", server.DecisionRequest{User: seeded, Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p0"})

	for _, v := range victims {
		v.proxy.Delay(400 * time.Millisecond)
	}
	body, _ := json.Marshal(change)
	resp, err := http.Post(gwSrv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s: status %d", path, resp.StatusCode)
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
	deadline := time.Now().Add(10 * time.Second)
	for st := status(); st.Handoff == nil || st.Handoff.Phase != cluster.PhaseStreaming; st = status() {
		if time.Now().After(deadline) {
			t.Fatalf("the handoff never reached streaming: %+v", st.LastHandoff)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// In the window: the mover is refused, with nothing recorded
	// anywhere; the stayer is decided by the owner it keeps.
	impatient := server.NewClient(gwSrv.URL, nil, server.WithShedRetries(0))
	got, err := impatient.Decision(teller(mover))
	refused := err != nil
	var apiErr *server.APIError
	switch {
	case err == nil:
		acked("in the window", teller(mover), got)
		t.Errorf("the mover %s's Teller step was answered %v during the handoff; want a 503", mover, got.Allowed)
	case !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable:
		t.Fatalf("the mover %s's Teller step during the handoff: %v, want a 503", mover, err)
	}
	if got, err := impatient.Decision(teller(stayer)); err != nil || !got.Allowed {
		t.Errorf("the stayer %s's Teller step during the handoff: %+v, %v; want it granted", stayer, got, err)
	} else {
		acked("in the window", teller(stayer), got)
	}

	for st := status(); st.Handoff != nil; st = status() {
		if time.Now().After(deadline) {
			t.Fatal("the handoff never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last := status().LastHandoff; last == nil || last.Phase != cluster.PhaseDone {
		t.Fatalf("the handoff ended %+v, want done", last)
	}
	// After cutover: a step refused in the window is sent again, and the
	// owner that now decides for the mover holds every step granted.
	if refused {
		decide("after", teller(mover))
	}
	decide("after", auditor(mover))
	decide("after", auditor(stayer))
}
