package server

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"msod/internal/explain"
	"msod/internal/pdp"
	"msod/internal/policy"
)

var update = flag.Bool("update", false, "rewrite the golden explain records")

// goldenPolicyXML holds one policy of each shape the explain record
// describes: MMER with a last step (bank), MMEP with a first and last
// step and a privilege listed twice (tax), and two policies matching
// one instance (order). HeadCashier inherits Teller, for the
// hierarchy-aware decisions.
const goldenPolicyXML = `
<RBACPolicy id="explain-golden">
  <RoleList>
    <Role value="Teller"/><Role value="Auditor"/><Role value="HeadCashier"/>
    <Role value="Clerk"/><Role value="Manager"/>
    <Role value="Buyer"/><Role value="Approver"/>
  </RoleList>
  <RoleHierarchy>
    <Inherits senior="HeadCashier" junior="Teller"/>
  </RoleHierarchy>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
    <Grant role="Auditor" operation="CommitAudit" target="audit"/>
    <Grant role="Clerk" operation="prepareCheck" target="check"/>
    <Grant role="Clerk" operation="confirmCheck" target="audit"/>
    <Grant role="Manager" operation="approveCheck" target="check"/>
    <Grant role="Manager" operation="combineResults" target="results"/>
    <Grant role="Buyer" operation="order" target="po"/>
    <Grant role="Approver" operation="approve" target="po"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="Teller"/>
        <Role type="e" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
    <MSoDPolicy BusinessContext="TaxOffice=!, taxRefundProcess=!">
      <FirstStep operation="prepareCheck" targetURI="check"/>
      <LastStep operation="confirmCheck" targetURI="audit"/>
      <MMEP ForbiddenCardinality="2">
        <Operation value="prepareCheck" target="check"/>
        <Operation value="confirmCheck" target="audit"/>
      </MMEP>
      <MMEP ForbiddenCardinality="2">
        <Operation value="approveCheck" target="check"/>
        <Operation value="approveCheck" target="check"/>
        <Operation value="combineResults" target="results"/>
      </MMEP>
    </MSoDPolicy>
    <MSoDPolicy BusinessContext="Dept=!, Order=!">
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="Buyer"/>
        <Role type="e" value="Approver"/>
      </MMER>
    </MSoDPolicy>
    <MSoDPolicy BusinessContext="Dept=*, Order=!">
      <MMEP ForbiddenCardinality="2">
        <Operation value="order" target="po"/>
        <Operation value="approve" target="po"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

// TestExplainGolden scripts one decision of every kind the engine
// explains through a server with explain on and compares each served
// /v1/explain record, with its times and trace ID cleared, against
// testdata/explain_golden.json. Regenerate deliberately with
// `go test -run TestExplainGolden -update ./internal/server`.
func TestExplainGolden(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(goldenPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	clients := map[bool]*Client{}
	for _, aware := range []bool{false, true} {
		p, err := pdp.New(pdp.Config{Policy: pol, HierarchyAwareMSoD: aware})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(p))
		t.Cleanup(ts.Close)
		clients[aware] = NewClient(ts.URL, nil)
	}
	type step struct {
		name         string
		hierarchical bool
		user, role   string
		op, target   string
		ctx          string
	}
	steps := []step{
		{name: "opening grant", user: "alice", role: "Teller", op: "HandleCash", target: "till", ctx: "Branch=York, Period=p1"},
		{name: "MMER grant", user: "bob", role: "Teller", op: "HandleCash", target: "till", ctx: "Branch=York, Period=p1"},
		{name: "MMER deny", user: "alice", role: "Auditor", op: "Audit", target: "ledger", ctx: "Branch=York, Period=p1"},
		{name: "RBAC deny", user: "alice", role: "Teller", op: "Audit", target: "ledger", ctx: "Branch=York, Period=p1"},
		{name: "LastStep termination", user: "carol", role: "Auditor", op: "CommitAudit", target: "audit", ctx: "Branch=York, Period=p1"},
		{name: "FirstStep activation", user: "c1", role: "Clerk", op: "prepareCheck", target: "check", ctx: "TaxOffice=Leeds, taxRefundProcess=r1"},
		{name: "MMEP grant", user: "m1", role: "Manager", op: "approveCheck", target: "check", ctx: "TaxOffice=Leeds, taxRefundProcess=r1"},
		{name: "MMEP deny, privilege listed twice", user: "m1", role: "Manager", op: "approveCheck", target: "check", ctx: "TaxOffice=Leeds, taxRefundProcess=r1"},
		{name: "two-policy opening", user: "b1", role: "Buyer", op: "order", target: "po", ctx: "Dept=Sales, Order=o1"},
		{name: "two-policy match", user: "b2", role: "Approver", op: "approve", target: "po", ctx: "Dept=Sales, Order=o1"},
		{name: "hierarchy-aware opening", hierarchical: true, user: "h1", role: "HeadCashier", op: "HandleCash", target: "till", ctx: "Branch=Leeds, Period=p2"},
		{name: "hierarchy-aware MMER deny", hierarchical: true, user: "h1", role: "Auditor", op: "Audit", target: "ledger", ctx: "Branch=Leeds, Period=p2"},
	}
	type entry struct {
		Name   string         `json:"name"`
		Record explain.Record `json:"record"`
	}
	var got []entry
	for i, s := range steps {
		c := clients[s.hierarchical]
		rid := "golden-" + string(rune('a'+i))
		if _, err := c.Decision(DecisionRequest{User: s.user, Roles: []string{s.role}, Operation: s.op, Target: s.target, Context: s.ctx, RequestID: rid}); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		rec, err := c.Explain(rid)
		if err != nil {
			t.Fatalf("%s: explain: %v", s.name, err)
		}
		rec.TraceID, rec.Time, rec.ElapsedSeconds = "", time.Time{}, 0
		got = append(got, entry{s.name, rec})
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	goldenPath := filepath.Join("testdata", "explain_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(out) != string(want) {
		t.Errorf("explain records drifted from %s:\n%s", goldenPath, out)
	}
}
