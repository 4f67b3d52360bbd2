package cluster

import (
	"errors"
	"net/http"
	"testing"

	"msod/internal/server"
)

// peerOf returns the stub that did NOT answer for the given routing
// key in a two-shard elastic cluster.
func peerOf(t *testing.T, gw *Gateway, shards []*elasticStub, key string) *elasticStub {
	t.Helper()
	owner, ok := gw.ShardFor(key)
	if !ok {
		t.Fatalf("no owner for %s", key)
	}
	if owner == "shard00" {
		return shards[1]
	}
	return shards[0]
}

// TestActivationFanoutBeforeAck: a grant that starts a FirstStep-gated
// instance is acked only after the peer shard was told the instance is
// running.
func TestActivationFanoutBeforeAck(t *testing.T) {
	gw, gts, shards := newElasticCluster(t, 2, Config{Retries: -1, FailAfter: 1})
	for _, s := range shards {
		s.mu.Lock()
		s.activateOnOp = "start"
		s.mu.Unlock()
	}
	c := server.NewClient(gts.URL, nil)
	resp, err := c.Decision(server.DecisionRequest{User: "u1", Operation: "start", Target: "t", Context: "Proc=p1"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed || len(resp.Activated) != 1 {
		t.Fatalf("decision = %+v, want a grant reporting one activated instance", resp)
	}
	peer := peerOf(t, gw, shards, "u1")
	peer.mu.Lock()
	active := peer.active["Proc=p1"]
	peer.mu.Unlock()
	if !active {
		t.Fatal("grant acked but the peer shard was never told Proc=p1 started")
	}
}

// TestActivationFanoutFailureWithholdsGrant: if a peer cannot
// acknowledge the activation, the grant is withheld fail-closed (503 +
// Retry-After) — an unreachable peer that silently missed it would
// later grant operations in the instance unrecorded.
func TestActivationFanoutFailureWithholdsGrant(t *testing.T) {
	gw, gts, shards := newElasticCluster(t, 2, Config{Retries: -1, FailAfter: 1})
	for _, s := range shards {
		s.mu.Lock()
		s.activateOnOp = "start"
		s.mu.Unlock()
	}
	peerOf(t, gw, shards, "u1").ts.Close()

	c := server.NewClient(gts.URL, nil)
	_, err := c.Decision(server.DecisionRequest{User: "u1", Operation: "start", Target: "t", Context: "Proc=p1"})
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("activating decision with a dead peer = %v, want fail-closed 503", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("withheld grant carries no Retry-After hint: %+v", apiErr)
	}
	// Decisions that start nothing still flow: the dead peer only
	// matters when there is an activation it must acknowledge.
	if _, err := c.Decision(server.DecisionRequest{User: "u1", Operation: "op", Target: "t", Context: "Proc=p1"}); err != nil {
		t.Fatalf("non-activating decision should still be served: %v", err)
	}
}

// TestJoinSeedsActivations: the join handoff seeds the joiner with the
// union of the members' running instances — both instances with real
// history and instances only activated.
func TestJoinSeedsActivations(t *testing.T) {
	gw, gts, shards := newElasticCluster(t, 2, Config{})
	seedUsers(t, gts, 20)
	shards[0].mu.Lock()
	shards[0].active["P=9"] = true
	shards[0].mu.Unlock()

	joiner := newElasticStub(t, "pol-1")
	resp := postJSON(t, gts.URL+ClusterJoinPath, ClusterMemberRequest{ID: "shard02", URL: joiner.ts.URL})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("join status %d", resp.StatusCode)
	}
	if last := waitHandoff(t, gw); last.Phase != PhaseDone {
		t.Fatalf("handoff ended %s: %s", last.Phase, last.Error)
	}
	joiner.mu.Lock()
	defer joiner.mu.Unlock()
	for _, want := range []string{"P=1", "P=9"} {
		if !joiner.active[want] {
			t.Errorf("joiner missing activation for %s (has %v)", want, joiner.active)
		}
	}
}
