package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msod/internal/bctx"
	"msod/internal/credential"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/workflow"
)

const taxPolicyXML = `
<RBACPolicy id="tax-1">
  <RoleList>
    <Role value="Clerk"/>
    <Role value="Manager"/>
    <Role value="RetainedADIController"/>
  </RoleList>
  <RoleAssignmentPolicy>
    <Assignment soa="gov.tax.example" role="Clerk"/>
    <Assignment soa="gov.tax.example" role="Manager"/>
  </RoleAssignmentPolicy>
  <TargetAccessPolicy>
    <Grant role="Clerk" operation="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
    <Grant role="Clerk" operation="confirmCheck" target="http://secret.location.com/audit"/>
    <Grant role="Manager" operation="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
    <Grant role="Manager" operation="combineResults" target="http://secret.location.com/results"/>
    <Grant role="RetainedADIController" operation="stats" target="msod:retainedADI"/>
    <Grant role="RetainedADIController" operation="purgeContext" target="msod:retainedADI"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="TaxOffice=!, taxRefundProcess=!">
      <FirstStep operation="prepareCheck" targetURI="http://www.myTaxOffice.com/Check"/>
      <LastStep operation="confirmCheck" targetURI="http://secret.location.com/audit"/>
      <MMEP ForbiddenCardinality="2">
        <Operation value="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="confirmCheck" target="http://secret.location.com/audit"/>
      </MMEP>
      <MMEP ForbiddenCardinality="2">
        <Operation value="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="combineResults" target="http://secret.location.com/results"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

func startServer(t *testing.T) (*httptest.Server, *pdp.PDP) {
	t.Helper()
	pol, err := policy.ParseRBACPolicy([]byte(taxPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p))
	t.Cleanup(ts.Close)
	return ts, p
}

func TestHealth(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)
	id, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if id != "tax-1" {
		t.Errorf("policy id = %q", id)
	}
}

func TestRemoteDecisionFlow(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)

	ctx := "TaxOffice=Leeds, taxRefundProcess=p1"
	prepare := DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: ctx,
	}
	resp, err := c.Decision(prepare)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed || resp.Phase != "granted" || resp.Recorded != 1 {
		t.Fatalf("prepare = %+v", resp)
	}

	// c1 confirming the same instance: denied by MSoD over HTTP.
	confirm := DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: ctx,
	}
	resp, err = c.Decision(confirm)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Allowed || resp.Phase != "msod" || !strings.Contains(resp.Reason, "MMEP") {
		t.Fatalf("confirm by preparer = %+v", resp)
	}

	// An RBAC denial reports its phase.
	bad := DecisionRequest{
		User: "m1", Roles: []string{"Manager"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: ctx,
	}
	resp, err = c.Decision(bad)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Allowed || resp.Phase != "rbac" {
		t.Fatalf("manager preparing = %+v", resp)
	}
}

func TestRemoteWithCredentials(t *testing.T) {
	ts, p := startServer(t)
	soa, err := credential.NewAuthority("gov.tax.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrustAuthority(soa); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	cred, err := soa.IssueRole("c1", "Clerk", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ts.URL, nil)
	resp, err := c.Decision(DecisionRequest{
		Credentials: []credential.Credential{cred},
		Operation:   "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p9",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed || resp.User != "c1" {
		t.Fatalf("credential decision = %+v", resp)
	}
}

func TestRemoteManagement(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)
	// Seed one record.
	if _, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	}); err != nil {
		t.Fatal(err)
	}
	// Unauthorized management is 403.
	if _, err := c.Manage(ManagementWireRequest{
		User: "c1", Roles: []string{"Clerk"}, Operation: "stats",
	}); err == nil {
		t.Fatal("unauthorized management accepted")
	}
	res, err := c.Manage(ManagementWireRequest{
		User: "root", Roles: []string{"RetainedADIController"}, Operation: "stats",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 {
		t.Fatalf("stats = %+v", res)
	}
	res, err = c.Manage(ManagementWireRequest{
		User: "root", Roles: []string{"RetainedADIController"},
		Operation: "purgeContext", ContextPattern: "TaxOffice=*, taxRefundProcess=*",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.Records != 0 {
		t.Fatalf("purge = %+v", res)
	}
}

// TestRemoteAdvice: the advisory endpoint answers without recording.
func TestRemoteAdvice(t *testing.T) {
	ts, p := startServer(t)
	c := NewClient(ts.URL, nil)
	req := DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	}
	resp, err := c.Advice(req)
	if err != nil || !resp.Allowed || resp.Recorded != 1 {
		t.Fatalf("advice = %+v, %v", resp, err)
	}
	if p.Store().Len() != 0 {
		t.Fatal("advice recorded history")
	}
	// Real decision then advice on the conflicting confirm.
	if _, err := c.Decision(req); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Advice(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "confirmCheck", Target: "http://secret.location.com/audit",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	})
	if err != nil || resp.Allowed || resp.Phase != "msod" {
		t.Fatalf("conflicting advice = %+v, %v", resp, err)
	}
	if p.Store().Len() != 1 {
		t.Fatalf("store len = %d", p.Store().Len())
	}
}

func TestRemoteErrors(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)
	// No subject.
	if _, err := c.Decision(DecisionRequest{
		Operation: "prepareCheck", Target: "t", Context: "A=1",
	}); err == nil {
		t.Error("subject-less request accepted")
	}
	// Bad context string.
	if _, err := c.Decision(DecisionRequest{
		User: "u", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "t", Context: "===",
	}); err == nil {
		t.Error("bad context accepted")
	}
}

// TestWorkflowOverRemotePDP drives the full Example 2 workflow engine
// against the HTTP PDP via the client's Decider implementation.
func TestWorkflowOverRemotePDP(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)

	inst, err := workflow.NewInstance(workflow.TaxRefundDefinition(),
		bctx.MustParse("TaxOffice=Leeds, taxRefundProcess=w1"))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		task string
		user string
		ok   bool
	}{
		{"T1", "c1", true},
		{"T2", "m1", true},
		{"T2", "m1", false}, // same manager twice
		{"T2", "m2", true},
		{"T3", "m1", false}, // approver combining
		{"T3", "m3", true},
		{"T4", "c1", false}, // preparer confirming
		{"T4", "c2", true},
	}
	for _, s := range steps {
		err := inst.Execute(s.task, rbac.UserID(s.user), c)
		if s.ok && err != nil {
			t.Fatalf("%s by %s: %v", s.task, s.user, err)
		}
		if !s.ok && err == nil {
			t.Fatalf("%s by %s unexpectedly granted", s.task, s.user)
		}
	}
	if !inst.Complete() {
		t.Error("workflow incomplete")
	}
}

// TestResponseRolesAreTheSubjects pins the answer's roles, byte for
// byte: a subject from the body answers the roles decoded from it, in
// their order; one from credentials answers the CVS's, whatever roles
// the body also names; a body with no "roles" member answers none.
func TestResponseRolesAreTheSubjects(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pdp.New(pdp.Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	soa, err := credential.NewAuthority("bank.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TrustAuthority(soa); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	cred, err := soa.IssueRole("alice", "Teller", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	credJSON, err := json.Marshal(cred)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p, WithExplainCapacity(-1))
	const traceID = "0af7651916cd43dd8448eb211c80319c"

	for _, tc := range []struct{ name, body, want string }{
		{
			name: "body subject",
			body: `{"user":"bob","roles":["Teller","Guest"],"operation":"HandleCash","target":"till","context":"Branch=York, Period=p1"}`,
			want: `{"allowed":true,"phase":"granted","user":"bob","roles":["Teller","Guest"],"recorded":1,"matchedPolicies":1,"traceID":"` + traceID + `"}`,
		},
		{
			name: "credentials, no body roles",
			body: `{"credentials":[` + string(credJSON) + `],"operation":"HandleCash","target":"till","context":"Branch=York, Period=p2"}`,
			want: `{"allowed":true,"phase":"granted","user":"alice","roles":["Teller"],"recorded":1,"matchedPolicies":1,"traceID":"` + traceID + `"}`,
		},
		{
			name: "credentials, body roles ignored",
			body: `{"roles":["Auditor","Teller"],"credentials":[` + string(credJSON) + `],"operation":"HandleCash","target":"till","context":"Branch=York, Period=p3"}`,
			want: `{"allowed":true,"phase":"granted","user":"alice","roles":["Teller"],"recorded":1,"matchedPolicies":1,"traceID":"` + traceID + `"}`,
		},
		{
			name: "no roles member",
			body: `{"user":"carol","operation":"HandleCash","target":"till","context":"Branch=York, Period=p4"}`,
			want: `{"allowed":false,"phase":"rbac","reason":"no activated role grants the requested permission","user":"carol","traceID":"` + traceID + `"}`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, DecisionPath, strings.NewReader(tc.body))
			r.Header.Set(obsv.TraceparentHeader, "00-"+traceID+"-b7ad6b7169203331-01")
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			if got := strings.TrimSuffix(w.Body.String(), "\n"); w.Code != http.StatusOK || got != tc.want {
				t.Errorf("status %d, answer\n%s\nwant\n%s", w.Code, got, tc.want)
			}
		})
	}
}
