package integration

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"msod"
	"msod/internal/cluster"
	"msod/internal/node"
	"msod/internal/server"
)

var traceAuditKey = []byte("trace-audit-secret")

// TestClusterTraceAssembly is the tracing acceptance run: three
// audited, trace-retaining shards behind a gateway, the paper's tax
// workflow driven through it, and then — for every decision — the
// assembled span tree fetched back by the trace ID the decision
// response echoed. The assembled trace must carry the same trace ID
// the HMAC-chained audit trail attests, every refusal must be
// retrievable (tail sampling keeps 100% of refusals), the merged tree
// must name the pipeline stages with shard attribution, and with a
// shard down the fan-out must fail closed with 503 rather than
// misreport a partial tree.
func TestClusterTraceAssembly(t *testing.T) {
	shards := make([]*clusterShard, 3)
	topo := make([]cluster.Shard, 0, len(shards))
	for i := range shards {
		id := fmt.Sprintf("shard-%c", 'a'+i)
		// -trace-sample 1 retains every fast grant too, so each decision in
		// the workflow has a retrievable trace; refusals would be kept
		// regardless.
		cfg := auditedConfig(t, filepath.Join(t.TempDir(), id), traceAuditKey)
		cfg.TraceSample = 1
		shards[i] = startShard(t, id, cfg)
		topo = append(topo, cluster.Shard{ID: id, BaseURL: shards[i].srv.URL})
	}
	gw, gwSrv := startGateway(t, node.GatewayConfig{Shards: topo, FailAfter: 1})
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
	traceIDs := make([]string, len(steps))
	var refusalTraces []string
	for i, st := range steps {
		resp, err := c.Decision(server.DecisionRequest{
			User: st.user, Roles: []string{st.role},
			Operation: st.op, Target: st.target, Context: taxCtx,
			RequestID: fmt.Sprintf("trace-step-%02d", i),
		})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if resp.Allowed != st.ok {
			t.Fatalf("step %d: allowed=%v, want %v (%s)", i, resp.Allowed, st.ok, resp.Reason)
		}
		if resp.TraceID == "" {
			t.Fatalf("step %d: decision response carries no trace ID", i)
		}
		traceIDs[i] = resp.TraceID
		if !st.ok {
			refusalTraces = append(refusalTraces, resp.TraceID)
		}

		// The assembled trace must be retrievable through the gateway by
		// the ID the response echoed, and must agree on the envelope.
		rec, err := c.Trace(resp.TraceID)
		if err != nil {
			t.Fatalf("step %d: trace %s through gateway: %v", i, resp.TraceID, err)
		}
		if rec.TraceID != resp.TraceID {
			t.Fatalf("step %d: assembled trace ID %q, want %q", i, rec.TraceID, resp.TraceID)
		}
		wantOutcome := "deny"
		wantSampled := "refusal"
		if st.ok {
			wantOutcome, wantSampled = "grant", "sampled"
		}
		if rec.Outcome != wantOutcome || rec.SampledFor != wantSampled {
			t.Fatalf("step %d: outcome/sampledFor = %q/%q, want %q/%q",
				i, rec.Outcome, rec.SampledFor, wantOutcome, wantSampled)
		}
		if rec.User != st.user || rec.Operation != st.op || rec.Target != st.target || rec.Context != taxCtx {
			t.Fatalf("step %d: trace envelope %+v does not match the request", i, rec)
		}

		// Exactly one shard decided, every span is attributed to it, and
		// the stage spans carry the msod_stage_duration_seconds names.
		if len(rec.Shards) != 1 {
			t.Fatalf("step %d: assembled shards %v, want exactly one", i, rec.Shards)
		}
		got := map[string]bool{}
		for _, sp := range rec.Spans {
			if sp.Shard != rec.Shards[0] {
				t.Fatalf("step %d: span %q attributed to %q, want %q", i, sp.Name, sp.Shard, rec.Shards[0])
			}
			got[sp.Name] = true
		}
		for _, stage := range []string{"cvs", "rbac", "msod", "audit"} {
			if !got[stage] {
				t.Fatalf("step %d: assembled trace lacks stage span %q (has %v)", i, stage, got)
			}
		}

		// The raw HTTP response attributes the answer to the deciding
		// shard via X-Msod-Shard, like the other fan-out endpoints.
		raw, err := http.Get(gwSrv.URL + server.TracesPath + resp.TraceID)
		if err != nil {
			t.Fatalf("step %d: raw trace fetch: %v", i, err)
		}
		raw.Body.Close()
		if hdr := raw.Header.Get("X-Msod-Shard"); hdr != strings.Join(rec.Shards, ",") {
			t.Fatalf("step %d: X-Msod-Shard %q, want %q", i, hdr, strings.Join(rec.Shards, ","))
		}
	}
	if len(refusalTraces) == 0 {
		t.Fatal("workflow produced no refusals; the retention assertion proved nothing")
	}

	// The trail cross-check: every trace ID the server echoed (and under
	// which the span tree is retrievable) is the same ID the HMAC chain
	// attests for that decision.
	attested := map[string]bool{}
	for _, s := range shards {
		if err := s.node.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := msod.NewAuditReader(s.cfg.Trail, traceAuditKey)
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
			attested[ev.TraceID] = true
		}
	}
	for i, tid := range traceIDs {
		if !attested[tid] {
			t.Fatalf("step %d: trace %s is retrievable but not attested by any shard's audit chain", i, tid)
		}
	}

	// Fail-closed: with one shard down, part of a tree could live on the
	// unreachable shard, so the gateway must refuse trace assembly with
	// 503 — even for traces whose spans all live on healthy shards.
	shards[2].srv.Close()
	gw.Checker().CheckNow()
	_, err := c.Trace(refusalTraces[0])
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("trace with a shard down: err = %v, want APIError 503", err)
	}
}
