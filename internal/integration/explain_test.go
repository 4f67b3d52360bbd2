package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"msod"
	"msod/internal/cluster"
	"msod/internal/node"
	"msod/internal/server"
)

var explainAuditKey = []byte("explain-audit-secret")

// auditedConfig is `msodd -policy P -trail DIR -trail-key-file K
// -trail-segment 1048576`, all of it in dir.
func auditedConfig(t *testing.T, dir string, key []byte) node.Config {
	cfg := policyConfig(t, dir)
	cfg.Trail = filepath.Join(dir, "trail")
	cfg.TrailKeyFile = writeTestFile(t, dir, "trail.key", string(key))
	cfg.TrailSegment = 1 << 20
	return cfg
}

// TestClusterExplainMatchesAuditTrail is the provenance acceptance
// run: three audited shards behind a gateway, the paper's tax workflow
// driven through it with explicit request IDs, and then — for every
// decision — the explain record fetched back through the gateway
// fan-out and compared against the HMAC-chained audit record of the
// same trace. The shared fields must agree byte-for-byte, every MSoD
// denial must name its governing rule with the k-of-m counters, and
// the trail itself must still verify.
func TestClusterExplainMatchesAuditTrail(t *testing.T) {
	shards := make([]*clusterShard, 3)
	topo := make([]cluster.Shard, 0, len(shards))
	for i := range shards {
		id := fmt.Sprintf("shard-%c", 'a'+i)
		shards[i] = startShard(t, id, auditedConfig(t, filepath.Join(t.TempDir(), id), explainAuditKey))
		topo = append(topo, cluster.Shard{ID: id, BaseURL: shards[i].srv.URL})
	}
	_, gwSrv := startGateway(t, node.GatewayConfig{Shards: topo, FailAfter: 1})
	c := server.NewClient(gwSrv.URL, nil)

	const taxCtx = "TaxOffice=Leeds, taxRefundProcess=p1"
	steps := []struct {
		user, role, op, target string
		ok                     bool
	}{
		{"c1", "Clerk", "prepareCheck", "http://www.myTaxOffice.com/Check", true},
		{"m1", "Manager", "approve/disapproveCheck", "http://www.myTaxOffice.com/Check", true},
		{"m1", "Manager", "approve/disapproveCheck", "http://www.myTaxOffice.com/Check", false},
		{"m2", "Manager", "approve/disapproveCheck", "http://www.myTaxOffice.com/Check", true},
		{"c1", "Clerk", "confirmCheck", "http://secret.location.com/audit", false},
		{"c2", "Clerk", "confirmCheck", "http://secret.location.com/audit", true},
	}
	records := make([]msod.ExplainRecord, len(steps))
	for i, st := range steps {
		rid := fmt.Sprintf("step-%02d", i)
		resp, err := c.Decision(server.DecisionRequest{
			User: st.user, Roles: []string{st.role},
			Operation: st.op, Target: st.target, Context: taxCtx,
			RequestID: rid,
		})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if resp.Allowed != st.ok {
			t.Fatalf("step %d: allowed=%v, want %v (%s)", i, resp.Allowed, st.ok, resp.Reason)
		}
		if resp.RequestID != rid {
			t.Fatalf("step %d: response requestID %q, want %q", i, resp.RequestID, rid)
		}

		// The explain fan-out must find the record wherever the user
		// hashed to, and it must cross-link to the same trace.
		rec, err := c.Explain(rid)
		if err != nil {
			t.Fatalf("step %d: explain through gateway: %v", i, err)
		}
		if rec.RequestID != rid || rec.TraceID != resp.TraceID || rec.TraceID == "" {
			t.Fatalf("step %d: record ids = %q/%q, response trace %q", i, rec.RequestID, rec.TraceID, resp.TraceID)
		}
		wantOutcome := "deny"
		if st.ok {
			wantOutcome = "grant"
		}
		if rec.Outcome != wantOutcome {
			t.Fatalf("step %d: outcome %q, want %q", i, rec.Outcome, wantOutcome)
		}
		// Every decision in this scenario consults at least one MSoD
		// constraint, so each explains its governing rule and counters.
		if rec.Governing == nil || rec.Governing.Rule == "" || rec.Governing.M == 0 {
			t.Fatalf("step %d: no governing constraint in %+v", i, rec)
		}
		if !st.ok {
			g := rec.Governing
			if !g.Denied || g.K < g.M-1 || g.KAfter != g.K {
				t.Fatalf("step %d: denial counters %+v (want denied at k >= m-1, k unchanged)", i, g)
			}
		}
		records[i] = rec
	}

	// Close the trails and verify + load every shard's chain.
	type auditProjection struct {
		User    string   `json:"user"`
		Roles   []string `json:"roles"`
		Op      string   `json:"op"`
		Target  string   `json:"target"`
		Ctx     string   `json:"ctx"`
		Effect  string   `json:"effect"`
		Matched int      `json:"matched"`
		Trace   string   `json:"trace"`
	}
	byTrace := make(map[string]auditProjection)
	for _, s := range shards {
		if err := s.node.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := msod.NewAuditReader(s.cfg.Trail, explainAuditKey)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Verify(); err != nil {
			t.Fatalf("shard %s trail fails verification: %v", s.id, err)
		}
		evs, err := r.All()
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			byTrace[ev.TraceID] = auditProjection{
				User: ev.User, Roles: ev.Roles, Op: ev.Operation, Target: ev.Target,
				Ctx: ev.Context, Effect: ev.Effect, Matched: ev.MatchedPolicies, Trace: ev.TraceID,
			}
		}
	}

	for i, rec := range records {
		audit, ok := byTrace[rec.TraceID]
		if !ok {
			t.Fatalf("step %d: no audit record for trace %s", i, rec.TraceID)
		}
		fromExplain := auditProjection{
			User: rec.User, Roles: rec.Roles, Op: rec.Operation, Target: rec.Target,
			Ctx: rec.Context, Effect: rec.Outcome, Matched: rec.MatchedPolicies, Trace: rec.TraceID,
		}
		// Byte-level agreement of the shared projection: what msodctl
		// explain renders and what the tamper-evident chain attests are
		// the same decision.
		a, err := json.Marshal(fromExplain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(audit)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("step %d: explain projection %s\n      != audit projection %s", i, a, b)
		}
	}
}
