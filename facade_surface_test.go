package msod_test

import (
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"msod"
)

// TestFacadeSurface exercises every facade constructor and helper so the
// supported public surface cannot silently rot: RBAC model, MSoD set
// parsing/compilation, engine options, secure/durable stores, linker,
// directory, audit reader.
func TestFacadeSurface(t *testing.T) {
	// RBAC model construction.
	m := msod.NewRBACModel()
	for _, r := range []msod.RoleName{"Teller", "Auditor", "Head"} {
		if err := m.AddRole(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddInheritance("Head", "Teller"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddSSD(msod.SoDSet{Name: "s", Roles: []msod.RoleName{"Teller", "Auditor"}, Cardinality: 2}); err != nil {
		t.Fatal(err)
	}

	// Standalone MSoD policy set parsing + compilation.
	set, err := msod.ParseMSoDPolicySet([]byte(`
<MSoDPolicySet>
  <MSoDPolicy BusinessContext="Branch=*, Period=!">
    <MMER ForbiddenCardinality="2">
      <Role type="e" value="Teller"/>
      <Role type="e" value="Auditor"/>
    </MMER>
  </MSoDPolicy>
</MSoDPolicySet>`))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := msod.CompileMSoD(set)
	if err != nil || len(compiled) != 1 {
		t.Fatalf("compile = %v, %v", compiled, err)
	}

	// Engine with the hierarchy expansion option.
	eng, err := msod.NewEngine(msod.NewADIStore(), compiled, msod.WithRoleExpander(m.Closure))
	if err != nil {
		t.Fatal(err)
	}
	ctx := msod.MustContext("Branch=York, Period=2006")
	if dec, err := eng.Evaluate(msod.EngineRequest{
		User: "u", Roles: []msod.RoleName{"Head"}, // expands to Teller
		Operation: "op", Target: "t", Context: ctx,
	}); err != nil || dec.Effect != msod.Grant {
		t.Fatalf("head eval = %+v, %v", dec, err)
	}
	if dec, err := eng.Evaluate(msod.EngineRequest{
		User: "u", Roles: []msod.RoleName{"Auditor"},
		Operation: "op", Target: "t", Context: ctx,
	}); err != nil || dec.Effect != msod.Deny {
		t.Fatalf("hierarchy expansion through facade broken: %+v, %v", dec, err)
	}
	// Peek through the facade.
	if dec, err := eng.Peek(msod.EngineRequest{
		User: "v", Roles: []msod.RoleName{"Teller"},
		Operation: "op", Target: "t", Context: ctx,
	}); err != nil || dec.Effect != msod.Grant {
		t.Fatalf("peek = %+v, %v", dec, err)
	}

	// Secure snapshot store.
	dir := t.TempDir()
	snap, err := msod.NewADISecureStore(filepath.Join(dir, "snap.sealed"), []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Save(nil); err != nil {
		t.Fatal(err)
	}

	// Durable store.
	ds, err := msod.OpenDurableADI(filepath.Join(dir, "durable"), []byte("d"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Append(msod.ADIRecord{
		User: "u", Operation: "op", Target: "t",
		Context: msod.MustContext("P=1"), Time: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Linker.
	lk := msod.NewLinker()
	lk.Link("issuer", "alias", "local")
	if got := lk.Resolve("issuer", "alias"); got != "local" {
		t.Errorf("Resolve = %q", got)
	}

	// Directory + allocator + HTTP server/client.
	repo := msod.NewDirectory()
	auth, err := msod.NewAuthority("soa")
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := msod.NewAllocator(auth, repo)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if _, err := alloc.Allocate("alice", "Teller", now.Add(-time.Hour), now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(msod.NewDirectoryServer(repo))
	defer ts.Close()
	creds, err := msod.NewDirectoryClient(ts.URL).Fetch("alice", now)
	if err != nil || len(creds) != 1 {
		t.Fatalf("directory fetch = %v, %v", creds, err)
	}

	// Audit writer/reader round trip through the facade.
	trailDir := filepath.Join(dir, "trail")
	w, err := msod.NewAuditWriter(trailDir, []byte("k"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(msod.AuditEvent{User: "u", Operation: "op", Target: "t",
			Context: "P=1", Effect: "grant"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 3 {
		t.Errorf("Seq = %d", w.Seq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := msod.NewAuditReader(trailDir, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Verify(); err != nil || n != 3 {
		t.Fatalf("verify = %d, %v", n, err)
	}
}

// TestFacadeVerifySurface exercises the policy-verification facade: the
// model checker via VerifyPolicy/VerifyPolicySource, the error
// severity, and the suppression accounting msodd's boot gate relies on.
func TestFacadeVerifySurface(t *testing.T) {
	// A provably broken policy: the LastStep is granted to nobody.
	broken := []byte(`
<RBACPolicy id="broken">
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
</RBACPolicy>`)
	res, err := msod.VerifyPolicySource(broken)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors() == 0 {
		t.Fatalf("broken policy verified clean: %v", res.Findings)
	}
	hasError := false
	for _, f := range res.Findings {
		if f.Severity == msod.LintError {
			hasError = true
		}
	}
	if !hasError {
		t.Errorf("no LintError-severity finding: %v", res.Findings)
	}

	// The semantic pass alone agrees.
	deep, err := msod.VerifyPolicy(res.Policy)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range deep {
		if f.Severity == msod.LintError && f.Check != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("VerifyPolicy reported no checked error finding: %v", deep)
	}

	// LintPolicy inherits the deep findings through the facade link.
	lint, err := msod.LintPolicy(res.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(lint) < len(deep) {
		t.Errorf("LintPolicy (%d findings) lost the deep findings (%d)", len(lint), len(deep))
	}

	// The verification status feeds the server surface.
	vs := &msod.PolicyVerificationStatus{}
	vs.Set(res.Warnings(), res.Suppressed)
	_ = msod.WithServerPolicyVerification(vs)
}
