package msod_test

import (
	"errors"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"msod"
)

const bankXML = `
<RBACPolicy id="facade-bank">
  <RoleList>
    <Role value="Teller"/>
    <Role value="Auditor"/>
  </RoleList>
  <RoleAssignmentPolicy>
    <Assignment soa="hr.bank.example" role="Teller"/>
    <Assignment soa="hr.bank.example" role="Auditor"/>
  </RoleAssignmentPolicy>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
    <Grant role="Auditor" operation="CommitAudit" target="audit"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

// TestQuickstartFlow exercises the documented public-API happy path:
// parse policy, build PDP, take history-dependent decisions.
func TestQuickstartFlow(t *testing.T) {
	pol, err := msod.ParsePolicy([]byte(bankXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.Decide(msod.Request{
		User: "alice", Roles: []msod.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: msod.MustContext("Branch=York, Period=2006"),
	})
	if err != nil || !dec.Allowed || dec.Phase != "granted" {
		t.Fatalf("teller decision = %+v, %v", dec, err)
	}
	dec, err = p.Decide(msod.Request{
		User: "alice", Roles: []msod.RoleName{"Auditor"},
		Operation: "Audit", Target: "ledger",
		Context: msod.MustContext("Branch=Leeds, Period=2006"),
	})
	if err != nil || dec.Allowed || dec.Phase != "msod" {
		t.Fatalf("auditor decision = %+v, %v", dec, err)
	}
}

// TestEngineOnlyFlow: the engine layer without a full PDP.
func TestEngineOnlyFlow(t *testing.T) {
	store := msod.NewADIStore()
	eng, err := msod.NewEngine(store, []msod.EnginePolicy{{
		Context: msod.MustContext("P=!"),
		MMEP: []msod.MMEPRule{{
			Privileges: []msod.Permission{
				{Operation: "open", Object: "t"}, {Operation: "close", Object: "t"}},
			Cardinality: 2,
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := eng.Evaluate(msod.EngineRequest{
		User: "u", Roles: []msod.RoleName{"A"},
		Operation: "open", Target: "t", Context: msod.MustContext("P=1"),
	})
	if err != nil || dec.Denial != nil {
		t.Fatalf("first = %+v, %v", dec, err)
	}
	dec, err = eng.Evaluate(msod.EngineRequest{
		User: "u", Roles: []msod.RoleName{"A"},
		Operation: "close", Target: "t", Context: msod.MustContext("P=1"),
	})
	if err != nil || dec.Denial == nil {
		t.Fatalf("second = %+v, %v", dec, err)
	}
	if recs := store.UserRecords("u", msod.MustContext("P=1")); len(recs) != 1 {
		t.Fatalf("records = %v", recs)
	}
}

// TestRemoteFlow: the server/client layer, with signed credentials.
func TestRemoteFlow(t *testing.T) {
	pol, err := msod.ParsePolicy([]byte(bankXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := msod.NewAuthority("hr.bank.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrustAuthority(hr); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(msod.NewServer(p))
	defer ts.Close()

	now := time.Now()
	cred, err := hr.IssueRole("alice", "Teller", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	client := msod.NewClient(ts.URL)
	resp, err := client.Decision(msod.DecisionRequest{
		Credentials: []msod.Credential{cred},
		Operation:   "HandleCash", Target: "till",
		Context: "Branch=York, Period=2006",
	})
	if err != nil || !resp.Allowed || resp.User != "alice" {
		t.Fatalf("remote decision = %+v, %v", resp, err)
	}
}

// TestRecoveryFlow: the audit-trail round trip through the facade.
func TestRecoveryFlow(t *testing.T) {
	pol, err := msod.ParsePolicy([]byte(bankXML))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "trail")
	w, err := msod.NewAuditWriter(dir, []byte("k"), 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol, Trail: w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Decide(msod.Request{
		User: "alice", Roles: []msod.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: msod.MustContext("Branch=York, Period=2006"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	store, stats, err := msod.Recover(pol, msod.RecoveryConfig{
		Mode: msod.RecoverFromTrail, TrailDir: dir, TrailKey: []byte("k"),
	})
	if err != nil || stats.Records != 1 || store.Len() != 1 {
		t.Fatalf("recover = %+v, len=%d, %v", stats, store.Len(), err)
	}
	r, err := msod.NewAuditReader(dir, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Verify(); err != nil || n != 1 {
		t.Fatalf("verify = %d, %v", n, err)
	}
}

// TestPEPFlow: the application-side enforcer through the facade.
func TestPEPFlow(t *testing.T) {
	pol, err := msod.ParsePolicy([]byte(bankXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ctx := msod.MustContext("Branch=York, Period=2006")
	teller, err := msod.NewEnforcer(p, msod.Subject{
		User: "alice", Roles: []msod.RoleName{"Teller"},
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := teller.Do("HandleCash", "till"); err != nil {
		t.Fatal(err)
	}
	auditor, err := msod.NewEnforcer(p, msod.Subject{
		User: "alice", Roles: []msod.RoleName{"Auditor"},
	}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := auditor.Do("Audit", "ledger"); !errors.Is(err, msod.ErrDenied) {
		t.Fatalf("expected ErrDenied, got %v", err)
	}
}

// TestWorkflowFacade: the workflow layer through the facade.
func TestWorkflowFacade(t *testing.T) {
	def := msod.TaxRefundWorkflow()
	inst, err := msod.NewWorkflowInstance(def, msod.MustContext("TaxOffice=X, taxRefundProcess=1"))
	if err != nil {
		t.Fatal(err)
	}
	if ready := inst.ReadyTasks(); len(ready) != 1 || ready[0] != "T1" {
		t.Errorf("ready = %v", ready)
	}
}

func TestContextHelpers(t *testing.T) {
	c, err := msod.ParseContext("Branch=*, Period=!")
	if err != nil {
		t.Fatal(err)
	}
	if c.IsInstance() {
		t.Error("wildcard context reported as instance")
	}
	h := msod.NewContextHierarchy()
	h.Touch(msod.MustContext("Branch=York, Period=2006"))
	if !h.Active(msod.MustContext("Branch=York")) {
		t.Error("hierarchy missing ancestor")
	}
}
