package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/bctx"
	"msod/internal/pdp"
	"msod/internal/rbac"
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

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func discardLog(string, ...any) {}

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{}); err == nil {
		t.Error("missing -policy accepted")
	}
	o, err := parseFlags([]string{"-policy", "p.xml", "-addr", ":0"})
	if err != nil || o.policyPath != "p.xml" || o.addr != ":0" {
		t.Errorf("parse = %+v, %v", o, err)
	}
	if _, err := parseFlags([]string{"-nonsense"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestParseFlagsConflicts: flag pairs that cannot both hold are refused
// at start-up, naming the pair; the pairs that can are accepted.
func TestParseFlagsConflicts(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		conflict string // "" when the flags are accepted
	}{
		{[]string{"-replica-of", "http://owner", "-trail", "t"}, "-replica-of conflicts with -trail"},
		{[]string{"-replica-of", "http://owner", "-adi", "a"}, "-replica-of conflicts with -adi"},
		{[]string{"-replica-of", "http://owner", "-recover", "trail"}, "-replica-of conflicts with -recover"},
		{[]string{"-replica-of", "http://owner", "-handoff"}, "-replica-of conflicts with -handoff"},
		{[]string{"-replica-of", "http://owner"}, ""},
		// A cluster shard recovered from its trail would come back without
		// the instances its peers opened: a false-grant path.
		{[]string{"-handoff", "-recover", "trail", "-trail", "t"}, "-recover trail conflicts with -handoff"},
		// -adi overrides -recover: the durable store keeps what the trail
		// lacks.
		{[]string{"-handoff", "-recover", "trail", "-trail", "t", "-adi", "a"}, ""},
		{[]string{"-handoff", "-recover", "snapshot"}, ""},
		{[]string{"-recover", "trail", "-trail", "t"}, ""},
	} {
		_, err := parseFlags(append([]string{"-policy", "p.xml"}, tc.args...))
		switch {
		case tc.conflict == "" && err != nil:
			t.Errorf("%q refused: %v", tc.args, err)
		case tc.conflict != "" && (err == nil || !strings.Contains(err.Error(), tc.conflict)):
			t.Errorf("%q = %v, want the %q refusal", tc.args, err, tc.conflict)
		}
	}
}

func TestBuildPDPVariants(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeFile(t, dir, "policy.xml", dPolicyXML)
	keyPath := writeFile(t, dir, "key", "trail-key")
	secretPath := writeFile(t, dir, "secret", "adi-secret")

	// Plain.
	p, _, cleanup, err := buildPDP(&options{policyPath: policyPath, recover: "none"}, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	if p.PolicyID() != "msodd-test" {
		t.Errorf("policy id = %q", p.PolicyID())
	}
	cleanup()

	// With trail + trail recovery round trip.
	trailDir := filepath.Join(dir, "trail")
	o := &options{policyPath: policyPath, recover: "none",
		trailDir: trailDir, keyFile: keyPath, segSize: 16}
	p, _, cleanup, err = buildPDP(o, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Decide(pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}); err != nil {
		t.Fatal(err)
	}
	cleanup()

	o.recover = "trail"
	p, _, cleanup, err = buildPDP(o, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.Decide(pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Auditor"},
		Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
	if err != nil || dec.Allowed {
		t.Fatalf("recovered msodd PDP lost history: %+v, %v", dec, err)
	}
	cleanup()

	// Durable ADI.
	o2 := &options{policyPath: policyPath, recover: "none",
		adiDir: filepath.Join(dir, "adi"), adiSecret: secretPath}
	p, _, cleanup, err = buildPDP(o2, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Decide(pdp.Request{
		User: "bob", Roles: []rbac.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2007"),
	}); err != nil {
		t.Fatal(err)
	}
	cleanup() // compacts + closes

	p, _, cleanup, err = buildPDP(o2, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	if p.Store().Len() != 1 {
		t.Errorf("durable recovery: %d records", p.Store().Len())
	}
	cleanup()

	// Error paths.
	bad := []*options{
		{policyPath: filepath.Join(dir, "absent.xml"), recover: "none"},
		{policyPath: policyPath, recover: "bogus"},
		{policyPath: policyPath, recover: "trail"},               // missing trail params
		{policyPath: policyPath, recover: "snapshot"},            // missing snapshot params
		{policyPath: policyPath, recover: "none", trailDir: "x"}, // trail without key
		{policyPath: policyPath, recover: "none", adiDir: "x"},   // adi without secret
	}
	for i, o := range bad {
		if _, _, _, err := buildPDP(o, discardLog); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
}

// TestServeGracefulShutdown boots the server on an ephemeral port,
// makes a real decision over HTTP, cancels the context, and checks the
// server drains cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeFile(t, dir, "policy.xml", dPolicyXML)
	p, _, cleanup, err := buildPDP(&options{policyPath: policyPath, recover: "none"}, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	var cur atomic.Pointer[server.Server]
	cur.Store(server.New(p))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	})
	go func() { done <- serve(ctx, ln, handler, discardLog) }()

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
	resp, err := client.Decision(server.DecisionRequest{
		User: "alice", Roles: []string{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: "Branch=York, Period=2006",
	})
	if err != nil || !resp.Allowed {
		t.Fatalf("decision = %+v, %v", resp, err)
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
	if _, err := client.Health(); err == nil || !strings.Contains(err.Error(), "health") {
		// Any network error is fine; success is not.
		if err == nil {
			t.Error("server still answering after shutdown")
		}
	}
}

// TestReloadPDPKeepsHistory: a policy hot-reload builds a new PDP over
// the same store, so history-dependent decisions survive, and a policy
// change applies to the existing history immediately.
func TestReloadPDPKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeFile(t, dir, "policy.xml", dPolicyXML)
	o := &options{policyPath: policyPath, recover: "none"}
	p, d, cleanup, err := buildPDP(o, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if _, err := p.Decide(pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	}); err != nil {
		t.Fatal(err)
	}

	// Reload with the same policy: alice is still barred from auditing.
	p2, err := reloadPDP(o, d, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p2.Decide(pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Auditor"},
		Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
	if err != nil || dec.Allowed {
		t.Fatalf("reload lost history: %+v, %v", dec, err)
	}

	// Reload with a policy whose MSoD set is gone: the same request is
	// now allowed (the new policy governs, over the old store).
	noMSoD := dPolicyXML[:strings.Index(dPolicyXML, "<MSoDPolicySet>")] + "</RBACPolicy>"
	writeFile(t, dir, "policy.xml", noMSoD)
	p3, err := reloadPDP(o, d, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	dec, err = p3.Decide(pdp.Request{
		User: "alice", Roles: []rbac.RoleName{"Auditor"},
		Operation: "Audit", Target: "ledger",
		Context: bctx.MustParse("Branch=York, Period=2006"),
	})
	if err != nil || !dec.Allowed {
		t.Fatalf("constraint-free reload still denies: %+v, %v", dec, err)
	}

	// A broken policy file fails the reload cleanly.
	writeFile(t, dir, "policy.xml", "<broken")
	if _, err := reloadPDP(o, d, discardLog); err == nil {
		t.Fatal("broken policy reloaded")
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
	if _, err := loadPolicy(broken, false, nil, discardLog); err != nil {
		t.Fatalf("ungated load refused: %v", err)
	}

	// With the gate: the error finding refuses the policy, fail closed.
	_, err := loadPolicy(broken, true, nil, discardLog)
	if err == nil || !strings.Contains(err.Error(), "refusing to serve") {
		t.Fatalf("gated load of a broken policy: err = %v, want refusal", err)
	}

	// A clean policy passes the gate and publishes its outcome.
	clean := writeFile(t, dir, "clean.xml", dPolicyXML)
	status := &server.VerificationStatus{}
	pol, err := loadPolicy(clean, true, status, discardLog)
	if err != nil {
		t.Fatalf("gated load of a clean policy refused: %v", err)
	}
	if pol.ID != "msodd-test" {
		t.Fatalf("loaded policy ID = %q", pol.ID)
	}
}

func TestVerifyPoliciesReloadKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	policyPath := writeFile(t, dir, "policy.xml", dPolicyXML)
	o := &options{policyPath: policyPath, recover: "none", verifyPolicies: true}
	p, d, cleanup, err := buildPDP(o, discardLog)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if d.verify == nil {
		t.Fatal("gate on but deps carry no verification status")
	}

	// Swap in a provably broken policy: the reload must refuse, so the
	// daemon keeps serving the previous verified policy.
	writeFile(t, dir, "policy.xml", dBrokenPolicyXML)
	if _, err := reloadPDP(o, d, discardLog); err == nil {
		t.Fatal("broken policy passed the reload gate")
	}
	if got := p.PolicyID(); got != "msodd-test" {
		t.Fatalf("serving policy = %q, want msodd-test", got)
	}
}
