package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/server"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Teller", []string{"Teller"}},
		{"Teller, Auditor", []string{"Teller", "Auditor"}},
		{" a ,b , c ", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		if got := splitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

const ctlPolicyXML = `
<RBACPolicy id="ctl-test">
  <RoleList><Role value="Teller"/><Role value="RetainedADIController"/></RoleList>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="RetainedADIController" operation="stats" target="msod:retainedADI"/>
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

func writeTempPolicy(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "policy.xml")
	if err := os.WriteFile(path, []byte(ctlPolicyXML), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdValidate(t *testing.T) {
	if err := cmdValidate([]string{"-policy", writeTempPolicy(t)}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := cmdValidate([]string{}); err == nil {
		t.Error("validate without -policy accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.xml")
	os.WriteFile(bad, []byte("<RBACPolicy><RoleList><Role value=''/></RoleList></RBACPolicy>"), 0o600)
	if err := cmdValidate([]string{"-policy", bad}); err == nil {
		t.Error("invalid policy accepted")
	}
	if err := cmdValidate([]string{"-policy", filepath.Join(t.TempDir(), "absent.xml")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdLint(t *testing.T) {
	// The ctl test policy references an undeclared "Auditor" in its MMER,
	// so lint must fail with warnings.
	if err := cmdLint([]string{"-policy", writeTempPolicy(t)}); err == nil {
		t.Error("lint passed a policy with an undeclared MMER role")
	}
	if err := cmdLint([]string{}); err == nil {
		t.Error("lint without -policy accepted")
	}
	clean := filepath.Join(t.TempDir(), "clean.xml")
	os.WriteFile(clean, []byte(`
<RBACPolicy id="clean">
  <RoleList><Role value="A"/><Role value="B"/></RoleList>
  <TargetAccessPolicy>
    <Grant role="A" operation="op" target="t"/>
    <Grant role="B" operation="op" target="t"/>
    <Grant role="A" operation="end" target="t"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="P=!">
      <LastStep operation="end" targetURI="t"/>
      <MMER ForbiddenCardinality="2"><Role type="e" value="A"/><Role type="e" value="B"/></MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`), 0o600)
	if err := cmdLint([]string{"-policy", clean}); err != nil {
		t.Errorf("lint on clean policy: %v", err)
	}
}

func TestCmdVerifyTrail(t *testing.T) {
	dir := t.TempDir()
	keyFile := filepath.Join(dir, "key")
	if err := os.WriteFile(keyFile, []byte("trail-key\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	trailDir := filepath.Join(dir, "trail")
	w, err := audit.NewWriter(trailDir, []byte("trail-key"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(audit.Event{User: "u", Operation: "op", Target: "t",
		Context: "A=1", Effect: "grant"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	if err := cmdVerifyTrail([]string{"-trail", trailDir, "-trail-key-file", keyFile}); err != nil {
		t.Fatalf("verify-trail: %v", err)
	}
	if err := cmdVerifyTrail([]string{"-trail", trailDir}); err == nil {
		t.Error("verify-trail without key accepted")
	}
	wrongKey := filepath.Join(dir, "wrong")
	os.WriteFile(wrongKey, []byte("nope"), 0o600)
	if err := cmdVerifyTrail([]string{"-trail", trailDir, "-trail-key-file", wrongKey}); err == nil {
		t.Error("wrong key verified")
	}
}

func TestCmdReplay(t *testing.T) {
	dir := t.TempDir()
	keyFile := filepath.Join(dir, "key")
	if err := os.WriteFile(keyFile, []byte("k"), 0o600); err != nil {
		t.Fatal(err)
	}
	policyPath := writeTempPolicy(t)

	// Build a trail by running a PDP.
	trailDir := filepath.Join(dir, "trail")
	w, err := audit.NewWriter(trailDir, []byte("k"), 0)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.ParseRBACPolicy([]byte(ctlPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol, Trail: w})
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
	w.Close()

	if err := cmdReplay([]string{"-trail", trailDir, "-trail-key-file", keyFile,
		"-policy", policyPath}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := cmdReplay([]string{"-trail", trailDir}); err == nil {
		t.Error("replay without required flags accepted")
	}
	if err := cmdReplay([]string{"-trail", trailDir, "-trail-key-file", keyFile,
		"-policy", policyPath, "-since", "garbage"}); err == nil {
		t.Error("bad -since accepted")
	}
}

func TestCmdDecideManageHealth(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(ctlPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(p))
	t.Cleanup(ts.Close)

	if err := cmdHealth([]string{"-server", ts.URL}); err != nil {
		t.Fatalf("health: %v", err)
	}
	if err := cmdDecide([]string{"-server", ts.URL,
		"-user", "alice", "-roles", "Teller",
		"-op", "HandleCash", "-target", "till",
		"-context", "Branch=York, Period=2006"}); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if err := cmdManage([]string{"-server", ts.URL,
		"-user", "root", "-roles", "RetainedADIController", "-op", "stats"}); err != nil {
		t.Fatalf("manage stats: %v", err)
	}
	// Unauthorized manage surfaces the server error.
	if err := cmdManage([]string{"-server", ts.URL,
		"-user", "alice", "-roles", "Teller", "-op", "stats"}); err == nil {
		t.Error("unauthorized manage succeeded")
	}
	// Bad -before flag.
	if err := cmdManage([]string{"-server", ts.URL,
		"-user", "root", "-roles", "RetainedADIController",
		"-op", "purgeBefore", "-before", "not-a-time"}); err == nil {
		t.Error("bad -before accepted")
	}
}
