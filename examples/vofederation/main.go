// Vofederation demonstrates MSoD in a multi-authority virtual
// organisation: two independent sources of authority issue signed role
// credentials to the same person (under different local identifiers), a
// user discloses only one role per session, and the resource-domain PDP
// still links the sessions together — via the Liberty-style identity
// linker of §6 — and enforces the separation.
//
// Run with: go run ./examples/vofederation
package main

import (
	"fmt"
	"log"
	"time"

	"msod"
)

const policyXML = `
<RBACPolicy id="vo-federation">
  <RoleList>
    <Role value="Teller"/>
    <Role value="Auditor"/>
  </RoleList>
  <RoleAssignmentPolicy>
    <Assignment soa="hr.bankA.example" role="Teller"/>
    <Assignment soa="audit.bankB.example" role="Auditor"/>
  </RoleAssignmentPolicy>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Period=!">
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

	// Two independent authorities. Neither knows what the other issued —
	// the situation where ANSI static SoD is unenforceable (§1).
	bankA, err := msod.NewAuthority("hr.bankA.example")
	if err != nil {
		log.Fatal(err)
	}
	bankB, err := msod.NewAuthority("audit.bankB.example")
	if err != nil {
		log.Fatal(err)
	}

	// Bank B knows the user only by a local alias; the resource domain
	// has linked it to the stable identity "alice" (the Liberty identity
	// federation workaround the paper sketches in §6).
	linker := msod.NewLinker()
	linker.Link("audit.bankB.example", "B-7741", "alice")

	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol, Linker: linker})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.TrustAuthority(bankA); err != nil {
		log.Fatal(err)
	}
	if err := p.TrustAuthority(bankB); err != nil {
		log.Fatal(err)
	}

	// Each authority runs its own attribute directory (the paper's LDAP
	// servers) and allocates credentials into it; the PEP fetches from
	// whichever directory the user points it at — which is exactly how
	// partial disclosure happens.
	now := time.Now()
	dirA, dirB := msod.NewDirectory(), msod.NewDirectory()
	allocA, err := msod.NewAllocator(bankA, dirA)
	if err != nil {
		log.Fatal(err)
	}
	allocB, err := msod.NewAllocator(bankB, dirB)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := allocA.Allocate("alice", "Teller", now.Add(-time.Hour), now.Add(24*time.Hour)); err != nil {
		log.Fatal(err)
	}
	if _, err := allocB.Allocate("B-7741", "Auditor", now.Add(-time.Hour), now.Add(24*time.Hour)); err != nil {
		log.Fatal(err)
	}
	fetch := func(repo *msod.Directory, holder string) []msod.Credential {
		entries := repo.Fetch(holder, now)
		creds := make([]msod.Credential, len(entries))
		for i, e := range entries {
			creds[i] = e.Credential
		}
		return creds
	}
	tellerCreds := fetch(dirA, "alice")
	auditorCreds := fetch(dirB, "B-7741")
	if len(tellerCreds) != 1 || len(auditorCreds) != 1 {
		log.Fatalf("directory fetch: %d/%d credentials", len(tellerCreds), len(auditorCreds))
	}
	tellerCred, auditorCred := tellerCreds[0], auditorCreds[0]

	decide := func(creds []msod.Credential, op, target, gloss string) {
		dec, err := p.Decide(msod.Request{
			Credentials: creds,
			Operation:   msod.Operation(op),
			Target:      msod.Object(target),
			Context:     msod.MustContext("Period=2006"),
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "DENY "
		if dec.Allowed {
			verdict = "GRANT"
		}
		fmt.Printf("%s  user=%-6s roles=%v — %s\n", verdict, dec.User, dec.Roles, gloss)
		if reason := dec.Reason(); reason != "" {
			fmt.Printf("       └─ %s\n", reason)
		}
	}

	fmt.Println("Session 1: alice's PEP fetches only her Bank A directory entry:")
	decide([]msod.Credential{tellerCred}, "HandleCash", "till",
		"partial disclosure — the PDP never sees the Auditor role")

	fmt.Println("\nSession 2: alice presents only her Bank B credential (alias B-7741):")
	decide([]msod.Credential{auditorCred}, "Audit", "ledger",
		"the linker maps B-7741 -> alice; history from session 1 applies")

	fmt.Println("\nA forged credential is rejected by the CVS before any decision:")
	forged := auditorCred
	forged.Holder = "mallory"
	if _, err := p.Decide(msod.Request{
		Credentials: []msod.Credential{forged},
		Operation:   "Audit", Target: "ledger",
		Context: msod.MustContext("Period=2006"),
	}); err != nil {
		fmt.Printf("  %v\n", err)
	}

	fmt.Println("\nA different federated user may audit:")
	carolCred, err := bankB.IssueRole("B-9001", "Auditor", now.Add(-time.Hour), now.Add(24*time.Hour))
	if err != nil {
		log.Fatal(err)
	}
	decide([]msod.Credential{carolCred}, "Audit", "ledger",
		"no link needed — B-9001 has no conflicting history")
}
