// Quickstart: the smallest useful MSoD deployment.
//
// It parses a policy with one MMER constraint, builds a PDP, and shows a
// conflict that neither ANSI SSD nor DSD can see: the same person acting
// as Teller and then — in a later, separate session — as Auditor within
// the same audit period.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"msod"
)

const policyXML = `
<RBACPolicy id="quickstart">
  <RoleList>
    <Role value="Teller"/>
    <Role value="Auditor"/>
  </RoleList>
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

func main() {
	pol, err := msod.ParsePolicy([]byte(policyXML))
	if err != nil {
		log.Fatal(err)
	}
	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol})
	if err != nil {
		log.Fatal(err)
	}

	decide := func(user, role, op, target, ctx string) {
		dec, err := p.Decide(msod.Request{
			User:      msod.UserID(user),
			Roles:     []msod.RoleName{msod.RoleName(role)},
			Operation: msod.Operation(op),
			Target:    msod.Object(target),
			Context:   msod.MustContext(ctx),
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "DENY "
		if dec.Allowed {
			verdict = "GRANT"
		}
		fmt.Printf("%s  %-5s as %-7s %-11s in %q", verdict, user, role, op, ctx)
		if reason := dec.Reason(); reason != "" {
			fmt.Printf("\n       └─ %s", reason)
		}
		fmt.Println()
	}

	fmt.Println("== session 1: alice works as a Teller ==")
	decide("alice", "Teller", "HandleCash", "till", "Branch=York, Period=2006")

	fmt.Println("\n== session 2 (days later): alice has been promoted to Auditor ==")
	decide("alice", "Auditor", "Audit", "ledger", "Branch=Leeds, Period=2006")

	fmt.Println("\n== a different auditor is fine ==")
	decide("bob", "Auditor", "Audit", "ledger", "Branch=Leeds, Period=2006")

	fmt.Println("\n== the audit commits; the period's history is purged ==")
	decide("bob", "Auditor", "CommitAudit", "audit", "Branch=Leeds, Period=2006")

	fmt.Println("\n== next period (or the same one, post-audit): alice may audit ==")
	decide("alice", "Auditor", "Audit", "ledger", "Branch=Leeds, Period=2006")
}
