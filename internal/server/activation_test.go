package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"msod/internal/pdp"
	"msod/internal/policy"
)

// TestDecisionReportsActivated: a grant that commits a FirstStep
// opening record names the started instance in Activated, so the
// cluster gateway knows to fan the activation out; later steps in the
// running instance do not.
func TestDecisionReportsActivated(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)

	const inst = "TaxOffice=Leeds, taxRefundProcess=p1"
	resp, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: inst,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed || len(resp.Activated) != 1 || resp.Activated[0] != inst {
		t.Fatalf("first step = %+v, want Activated=[%s]", resp, inst)
	}

	resp, err = c.Decision(DecisionRequest{
		User: "m1", Roles: []string{"Manager"},
		Operation: "approve/disapproveCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: inst,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed || resp.Recorded != 1 || len(resp.Activated) != 0 {
		t.Fatalf("mid step = %+v, want recorded grant with no Activated", resp)
	}
}

// TestActivationEndpoint is the sharding gap end to end on one shard:
// without an activation the FirstStep-gated policy treats the instance
// as not started and grants unrecorded; after the gateway-style POST
// the same operation is recorded into the running instance.
func TestActivationEndpoint(t *testing.T) {
	ts, p := startServer(t)
	c := NewClient(ts.URL, nil)

	approve := func(user, inst string) DecisionResponse {
		t.Helper()
		resp, err := c.Decision(DecisionRequest{
			User: user, Roles: []string{"Manager"},
			Operation: "approve/disapproveCheck", Target: "http://www.myTaxOffice.com/Check",
			Context: "TaxOffice=Leeds, taxRefundProcess=" + inst,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Control: the instance never started here, so MSoD does not apply
	// and nothing is recorded — exactly the hazard on a shard that
	// missed the first step.
	if r := approve("m1", "p0"); !r.Allowed || r.Recorded != 0 {
		t.Fatalf("unactivated instance = %+v, want unrecorded grant", r)
	}

	const inst = "TaxOffice=Leeds, taxRefundProcess=p1"
	act, err := c.Activate(context.Background(), []string{inst})
	if err != nil {
		t.Fatal(err)
	}
	if act.Added != 1 {
		t.Fatalf("activate added = %d, want 1", act.Added)
	}
	// Idempotent: a repeated activation adds nothing.
	if act, err = c.Activate(context.Background(), []string{inst}); err != nil || act.Added != 0 {
		t.Fatalf("replayed activate = %+v, %v, want Added 0", act, err)
	}
	listed, err := c.ActiveContexts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, got := range listed {
		if got == inst {
			found = true
		}
	}
	if !found {
		t.Fatalf("active contexts %v missing %s", listed, inst)
	}

	// The activated instance now records, and the recorded history
	// feeds MMEP denial exactly as if the first step had run here.
	if r := approve("m2", "p1"); !r.Allowed || r.Recorded != 1 {
		t.Fatalf("activated instance = %+v, want recorded grant", r)
	}
	if r := approve("m2", "p1"); r.Allowed {
		t.Fatalf("second approve by m2 = %+v, want MMEP denial from recorded history", r)
	}
	if n := p.Store().Len(); n != 1 {
		t.Fatalf("store holds %d records after the activation and one recorded grant, want 1: an activation is no record", n)
	}
}

// TestActivateSplitsAtTheBodyBound: more instances than one request can
// carry under the shard's body bound — a join's or a purge's sync on a
// busy cluster — go in several requests, and every one is activated.
func TestActivateSplitsAtTheBodyBound(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p)
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ActivationPath && r.ContentLength > maxBodyBytes {
			t.Errorf("activation request of %d bytes", r.ContentLength)
		}
		posts.Add(1)
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	contexts := make([]string, 10000)
	for i := range contexts {
		contexts[i] = fmt.Sprintf("TaxOffice=Leeds, taxRefundProcess=p%06d", i)
	}
	act, err := NewClient(ts.URL, nil).Activate(context.Background(), contexts)
	if err != nil {
		t.Fatal(err)
	}
	if act.Added != len(contexts) || posts.Load() < 2 {
		t.Fatalf("activated %d of %d instances in %d requests; want all, in more than one", act.Added, len(contexts), posts.Load())
	}
}

func TestActivationEndpointRefusals(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)

	if _, err := c.Activate(context.Background(), nil); apiStatus(t, err) != 400 {
		t.Fatal("empty activation should be a 400")
	}
	if _, err := c.Activate(context.Background(), []string{"not-a-context"}); apiStatus(t, err) != 400 {
		t.Fatal("malformed context should be a 400")
	}
}
