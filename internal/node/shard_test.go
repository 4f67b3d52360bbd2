package node

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/fsx"
	"msod/internal/server"
)

const dPolicyXML = `
<RBACPolicy id="msodd-test">
  <RoleList><Role value="Teller"/><Role value="Auditor"/></RoleList>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="Teller"/>
        <Role type="e" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// newShard builds cfg's shard and a client of it served in process.
func newShard(t *testing.T, cfg Config) (*Shard, *server.Client) {
	t.Helper()
	sh, err := NewShard(cfg, quiet)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sh)
	t.Cleanup(srv.Close)
	return sh, server.NewClient(srv.URL, nil)
}

// decide sends one decision for user acting in role: Teller handles
// cash, Auditor audits the ledger.
func decide(t *testing.T, c *server.Client, user, role, period string) server.DecisionResponse {
	t.Helper()
	req := server.DecisionRequest{User: user, Roles: []string{role},
		Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=" + period}
	if role == "Auditor" {
		req.Operation, req.Target = "Audit", "ledger"
	}
	resp, err := c.Decision(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func policyID(t *testing.T, c *server.Client) string {
	t.Helper()
	id, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestBuildPDPVariants(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeFile(t, dir, "policy.xml", dPolicyXML)
	keyPath := writeFile(t, dir, "key", "trail-key")
	secretPath := writeFile(t, dir, "secret", "adi-secret")

	// Plain.
	sh, c := newShard(t, Config{Policy: policyPath, Recover: "none"})
	if id := policyID(t, c); id != "msodd-test" {
		t.Errorf("policy id = %q", id)
	}
	sh.Close()

	// With trail + trail recovery round trip.
	trailDir := filepath.Join(dir, "trail")
	cfg := Config{Policy: policyPath, Recover: "none",
		Trail: trailDir, TrailKeyFile: keyPath, TrailSegment: 16}
	sh, c = newShard(t, cfg)
	decide(t, c, "alice", "Teller", "2006")
	sh.Close()

	cfg.Recover = "trail"
	sh, c = newShard(t, cfg)
	if dec := decide(t, c, "alice", "Auditor", "2006"); dec.Allowed {
		t.Fatalf("recovered msodd PDP lost history: %+v", dec)
	}
	sh.Close()

	// Durable ADI.
	cfg2 := Config{Policy: policyPath, Recover: "none",
		ADI: filepath.Join(dir, "adi"), ADISecretFile: secretPath}
	sh, c = newShard(t, cfg2)
	decide(t, c, "bob", "Teller", "2007")
	sh.Close() // compacts + closes

	sh, _ = newShard(t, cfg2)
	if n := sh.Store().Len(); n != 1 {
		t.Errorf("durable recovery: %d records", n)
	}
	sh.Close()

	// Error paths.
	bad := []Config{
		{Policy: filepath.Join(dir, "absent.xml"), Recover: "none"},
		{Policy: policyPath, Recover: "bogus"},
		{Policy: policyPath, Recover: "trail"},            // missing trail params
		{Policy: policyPath, Recover: "snapshot"},         // no such mode: -adi keeps a durable ADI
		{Policy: policyPath, Recover: "none", Trail: "x"}, // trail without key
		{Policy: policyPath, Recover: "none", ADI: "x"},   // adi without secret
	}
	for i, cfg := range bad {
		if _, err := NewShard(cfg, quiet); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
}

// walSyncCounter is fsx.OS counting the Syncs of the durable store's
// WAL.
type walSyncCounter struct {
	fsx.FS
	syncs atomic.Int64
}

func (c *walSyncCounter) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != "wal.log" {
		return f, err
	}
	return countedSyncs{f, &c.syncs}, nil
}

type countedSyncs struct {
	fsx.File
	n *atomic.Int64
}

func (f countedSyncs) Sync() error { f.n.Add(1); return f.File.Sync() }

// TestDurableShardSyncsEveryGrant: -adi has no unsynced mode, so a
// grant is on disk before the PEP sees it.
func TestDurableShardSyncsEveryGrant(t *testing.T) {
	dir := t.TempDir()
	fs := &walSyncCounter{FS: fsx.OS}
	sh, c := newShard(t, Config{
		Policy: writeFile(t, dir, "policy.xml", dPolicyXML),
		ADI:    filepath.Join(dir, "adi"), ADISecretFile: writeFile(t, dir, "secret", "adi-secret"),
		FS: fs,
	})
	defer sh.Close()
	before := fs.syncs.Load()
	if dec := decide(t, c, "alice", "Teller", "2006"); !dec.Allowed {
		t.Fatalf("decision = %+v", dec)
	}
	if n := fs.syncs.Load() - before; n < 1 {
		t.Fatalf("a granted decision synced the WAL %d times, want at least 1", n)
	}
}

// TestServeGracefulShutdown boots the server on an ephemeral port,
// makes a real decision over HTTP, cancels the context, and checks the
// server drains cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeFile(t, dir, "policy.xml", dPolicyXML)
	sh, err := NewShard(Config{Policy: policyPath, Recover: "none"}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, sh, quiet) }()

	client := server.NewClient("http://"+ln.Addr().String(), nil)
	deadline := time.Now().Add(5 * time.Second)
	var id string
	for {
		id, err = client.Health()
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil || id != "msodd-test" {
		t.Fatalf("health = %q, %v", id, err)
	}
	if resp := decide(t, client, "alice", "Teller", "2006"); !resp.Allowed {
		t.Fatalf("decision = %+v", resp)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if _, err := client.Health(); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestReloadPDPKeepsHistory: a policy hot-reload builds a new PDP over
// the same store, so history-dependent decisions survive, and a policy
// change applies to the existing history immediately.
func TestReloadPDPKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeFile(t, dir, "policy.xml", dPolicyXML)
	sh, c := newShard(t, Config{Policy: policyPath, Recover: "none"})
	defer sh.Close()
	decide(t, c, "alice", "Teller", "2006")

	// Reload with the same policy: alice is still barred from auditing.
	if err := sh.Reload(); err != nil {
		t.Fatal(err)
	}
	if dec := decide(t, c, "alice", "Auditor", "2006"); dec.Allowed {
		t.Fatalf("reload lost history: %+v", dec)
	}

	// Reload with a policy whose MSoD set is gone: the same request is
	// now allowed (the new policy governs, over the old store).
	noMSoD := dPolicyXML[:strings.Index(dPolicyXML, "<MSoDPolicySet>")] + "</RBACPolicy>"
	writeFile(t, dir, "policy.xml", noMSoD)
	if err := sh.Reload(); err != nil {
		t.Fatal(err)
	}
	if dec := decide(t, c, "alice", "Auditor", "2006"); !dec.Allowed {
		t.Fatalf("constraint-free reload still denies: %+v", dec)
	}

	// A broken policy file fails the reload cleanly.
	writeFile(t, dir, "policy.xml", "<broken")
	if err := sh.Reload(); err == nil {
		t.Fatal("broken policy reloaded")
	}
}

// TestReloadKeepsIdempotencyCache: a retry of a decision answered before
// a reload replays the committed answer — the same trace ID, nothing
// recorded twice — and the decision stays explained, because a reload
// swaps the PDP and keeps what the shard remembers of its requests.
func TestReloadKeepsIdempotencyCache(t *testing.T) {
	sh, c := newShard(t, Config{Policy: writeFile(t, t.TempDir(), "policy.xml", dPolicyXML)})
	defer sh.Close()
	req := server.DecisionRequest{User: "alice", Roles: []string{"Teller"},
		Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=2006", RequestID: "r-1"}
	first, err := c.Decision(req)
	if err != nil || !first.Allowed {
		t.Fatalf("first attempt: %+v %v", first, err)
	}
	if err := sh.Reload(); err != nil {
		t.Fatal(err)
	}
	retry, err := c.Decision(req)
	if err != nil {
		t.Fatal(err)
	}
	if retry.TraceID != first.TraceID {
		t.Errorf("the retry after a reload was decided again (trace %s, first %s)", retry.TraceID, first.TraceID)
	}
	if n := sh.Store().Len(); n != 1 {
		t.Errorf("the store holds %d records after one grant and its retry, want 1", n)
	}
	if rec, err := c.Explain("r-1"); err != nil || rec.TraceID != first.TraceID {
		t.Errorf("explain r-1 after the reload = %+v, %v", rec, err)
	}
}

// TestReloadWhileServing: reloads swap the PDP under the live server
// while decisions are served, each decided by one PDP or the other.
// Run under -race.
func TestReloadWhileServing(t *testing.T) {
	sh, c := newShard(t, Config{Policy: writeFile(t, t.TempDir(), "policy.xml", dPolicyXML)})
	defer sh.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if err := sh.Reload(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if dec := decide(t, c, fmt.Sprintf("u%d", i), "Teller", "2006"); !dec.Allowed {
			t.Fatalf("decision %d during reloads: %+v", i, dec)
		}
	}
	<-done
	if n := sh.Store().Len(); n != 50 {
		t.Errorf("the store holds %d records after 50 grants, want 50", n)
	}
}

// A policy with a provable defect (the LastStep privilege is granted
// to nobody) must refuse to boot under -verify-policies, while plain
// boot (lint only) accepts it.
const dBrokenPolicyXML = `
<RBACPolicy id="msodd-broken">
  <RoleList><Role value="Clerk"/></RoleList>
  <TargetAccessPolicy><Grant role="Clerk" operation="prepare" target="check"/></TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="P=!">
      <LastStep operation="confirm" targetURI="audit"/>
      <MMEP ForbiddenCardinality="2">
        <Privilege operation="prepare" target="check"/>
        <Privilege operation="confirm" target="audit"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

func TestVerifyPoliciesGate(t *testing.T) {
	dir := t.TempDir()
	broken := writeFile(t, dir, "broken.xml", dBrokenPolicyXML)

	// Without the gate: lint findings log, the policy loads.
	sh, err := NewShard(Config{Policy: broken}, quiet)
	if err != nil {
		t.Fatalf("ungated load refused: %v", err)
	}
	sh.Close()

	// With the gate: the error finding refuses the policy, fail closed.
	_, err = NewShard(Config{Policy: broken, VerifyPolicies: true}, quiet)
	if err == nil || !strings.Contains(err.Error(), "refusing to serve") {
		t.Fatalf("gated load of a broken policy: err = %v, want refusal", err)
	}

	// A clean policy passes the gate and publishes its outcome.
	clean := writeFile(t, dir, "clean.xml", dPolicyXML)
	sh, c := newShard(t, Config{Policy: clean, VerifyPolicies: true})
	defer sh.Close()
	if id := policyID(t, c); id != "msodd-test" {
		t.Fatalf("loaded policy ID = %q", id)
	}
}

func TestVerifyPoliciesReloadKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeFile(t, dir, "policy.xml", dPolicyXML)
	sh, c := newShard(t, Config{Policy: policyPath, Recover: "none", VerifyPolicies: true})
	defer sh.Close()
	if sh.verify == nil {
		t.Fatal("gate on but the shard carries no verification status")
	}

	// Swap in a provably broken policy: the reload must refuse, so the
	// daemon keeps serving the previous verified policy.
	writeFile(t, dir, "policy.xml", dBrokenPolicyXML)
	if err := sh.Reload(); err == nil {
		t.Fatal("broken policy passed the reload gate")
	}
	if got := policyID(t, c); got != "msodd-test" {
		t.Fatalf("serving policy = %q, want msodd-test", got)
	}
}
