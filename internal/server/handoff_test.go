package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msod/internal/bctx"
	"msod/internal/inspect"
	"msod/internal/pdp"
	"msod/internal/policy"
)

// startHandoffServer is startServer with the resharding surface on,
// plus the event broker the snapshot endpoint needs (msodd wires one
// whenever -handoff is set, because handoff streams via snapshots).
func startHandoffServer(t *testing.T) (*httptest.Server, *pdp.PDP) {
	t.Helper()
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	broker := inspect.NewBroker(64)
	p, err := pdp.New(pdp.Config{
		Policy:   pol,
		Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p, WithHandoff(), WithEventBroker(broker)))
	t.Cleanup(ts.Close)
	return ts, p
}

// prepare runs one recorded prepareCheck for user in the given process
// instance, seeding exactly one retained-ADI record.
func prepare(t *testing.T, c *Client, user, instance string) {
	t.Helper()
	resp, err := c.Decision(DecisionRequest{
		User: user, Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=" + instance,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed || resp.Recorded != 1 {
		t.Fatalf("prepare for %s = %+v", user, resp)
	}
}

func apiStatus(t *testing.T, err error) int {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	return apiErr.Status
}

// The surface is opt-in: a shard started without WithHandoff refuses
// all three endpoints with 403, list included.
func TestHandoffSurfaceDisabled(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := c.HandoffUsers(ctx); apiStatus(t, err) != 403 {
		t.Errorf("users on disabled surface: %v", err)
	}
	snap := ReplicaSnapshot{Policy: "tax-1", Users: []string{"c1"}}
	if _, err := c.HandoffImport(ctx, snap); apiStatus(t, err) != 403 {
		t.Errorf("import on disabled surface: %v", err)
	}
	if _, err := c.HandoffRelease(ctx, []string{"c1"}); apiStatus(t, err) != 403 {
		t.Errorf("release on disabled surface: %v", err)
	}
}

func TestHandoffUsersList(t *testing.T) {
	ts, _ := startHandoffServer(t)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	out, err := c.HandoffUsers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Policy != "tax-1" || len(out.Users) != 0 {
		t.Fatalf("empty shard list = %+v", out)
	}

	prepare(t, c, "c1", "h1")
	prepare(t, c, "c2", "h2")
	out, err = c.HandoffUsers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, u := range out.Users {
		got[u] = true
	}
	if len(got) != 2 || !got["c1"] || !got["c2"] {
		t.Fatalf("user list = %v", out.Users)
	}
}

// An imported subtree carries full MSoD force on the recipient, and a
// retried import replaces rather than double-counts.
func TestHandoffImportMovesHistory(t *testing.T) {
	donorTS, _ := startHandoffServer(t)
	donor := NewClient(donorTS.URL, nil)
	recipTS, _ := startHandoffServer(t)
	recip := NewClient(recipTS.URL, nil)
	ctx := context.Background()

	prepare(t, donor, "c1", "h1")
	prepare(t, donor, "c2", "h2")
	snap, err := donor.ReplicaSnapshotUsers(ctx, []string{"c1", "c2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 2 {
		t.Fatalf("snapshot records = %d", len(snap.Records))
	}

	imp, err := recip.HandoffImport(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Users != 2 || imp.Records != 2 || imp.Replaced != 0 {
		t.Fatalf("first import = %+v", imp)
	}

	// Retry: replace semantics purge the first copy before appending,
	// so a duplicated import leaves history exact, not doubled.
	imp2, err := recip.HandoffImport(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if imp2.Records != 2 || imp2.Replaced != 2 {
		t.Fatalf("retried import = %+v", imp2)
	}

	// The moved history binds: c1 prepared h1, so c1 confirming h1 on
	// the recipient violates the MMEP exactly as it would have on the
	// donor.
	resp, err := recip.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: "TaxOffice=Leeds, taxRefundProcess=h1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Allowed || resp.Phase != "msod" || !strings.Contains(resp.Reason, "MMEP") {
		t.Fatalf("confirm after import = %+v", resp)
	}
	// c3 never moved; an unrelated clerk confirming h1 is fine.
	resp, err = recip.Decision(DecisionRequest{
		User: "c3", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: "TaxOffice=Leeds, taxRefundProcess=h1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed {
		t.Fatalf("unrelated confirm after import = %+v", resp)
	}
}

func TestHandoffImportRefusals(t *testing.T) {
	ts, _ := startHandoffServer(t)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	// Cross-policy history corrupts MSoD state: 409.
	snap := ReplicaSnapshot{Policy: "other-policy", Users: []string{"c1"}}
	if _, err := c.HandoffImport(ctx, snap); apiStatus(t, err) != 409 {
		t.Errorf("policy mismatch: %v", err)
	}

	// An unscoped snapshot cannot get replace semantics: 400.
	snap = ReplicaSnapshot{Policy: "tax-1"}
	if _, err := c.HandoffImport(ctx, snap); apiStatus(t, err) != 400 {
		t.Errorf("unscoped snapshot: %v", err)
	}

	// A record outside the declared scope would dodge the replace
	// purge and double on retry: 400, nothing imported.
	donorTS, _ := startHandoffServer(t)
	donor := NewClient(donorTS.URL, nil)
	prepare(t, donor, "c1", "h1")
	snap, err := donor.ReplicaSnapshotUsers(ctx, []string{"c1"})
	if err != nil {
		t.Fatal(err)
	}
	snap.Users = []string{"c9"}
	if _, err := c.HandoffImport(ctx, snap); apiStatus(t, err) != 400 {
		t.Errorf("out-of-scope record: %v", err)
	}

	// The export is scoped or refused: a dump of the whole store would
	// hold the commit lock for as long as the store is large.
	if err := donor.get(ctx, ReplicaSnapshotPath, &ReplicaSnapshot{}); apiStatus(t, err) != 400 {
		t.Errorf("unscoped export: %v", err)
	}
	out, err := c.HandoffUsers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Users) != 0 {
		t.Fatalf("refused import left records behind: %v", out.Users)
	}
}

func TestHandoffRelease(t *testing.T) {
	ts, _ := startHandoffServer(t)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	prepare(t, c, "c1", "h1")
	prepare(t, c, "c1", "h2")
	prepare(t, c, "c2", "h3")

	if _, err := c.HandoffRelease(ctx, nil); apiStatus(t, err) != 400 {
		t.Errorf("empty release: %v", err)
	}

	rel, err := c.HandoffRelease(ctx, []string{"c1", "never-seen"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Users != 2 || rel.Purged != 2 {
		t.Fatalf("release = %+v", rel)
	}
	out, err := c.HandoffUsers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Users) != 1 || out.Users[0] != "c2" {
		t.Fatalf("post-release list = %v", out.Users)
	}
}

// TestHandoffImportKeepsRunningInstancesActive: an import releases what
// the recipient held of its users before recording the copy, so an
// instance a stale record of theirs was the only trace of keeps running
// here. The stale record had made the instance's carried activation a
// no-op (it was open already); were the import's replace a bare user
// purge, it would take the instance's only trace with it, and this
// shard would then grant its own users' steps in it unrecorded.
func TestHandoffImportKeepsRunningInstancesActive(t *testing.T) {
	ts, p := startHandoffServer(t)
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	const running = "TaxOffice=Leeds, taxRefundProcess=x"
	prepare(t, c, "u", "x")
	if act, err := c.Activate(ctx, []string{running}); err != nil || act.Added != 0 {
		t.Fatalf("carried activation of %s = %+v, %v; want a no-op beside the stale record", running, act, err)
	}
	snap := ReplicaSnapshot{Policy: "tax-1", Users: []string{"u"}, Records: []SnapshotRecord{{
		User: "u", Roles: []string{"Clerk"}, Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=y", Time: time.Now(),
	}}}
	imp, err := c.HandoffImport(ctx, snap)
	if err != nil || imp.Replaced != 1 || imp.Records != 1 {
		t.Fatalf("import = %+v, %v; want the stale record replaced by the copy", imp, err)
	}
	if active, err := p.Store().ContextActive(bctx.MustParse(running)); err != nil || !active {
		t.Fatalf("ContextActive(%s) = %v, %v after the import; want it still running", running, active, err)
	}
}
