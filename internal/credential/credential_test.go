package credential

import (
	"errors"
	"testing"
	"time"

	"msod/internal/rbac"
)

var (
	tNow    = time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
	tBefore = tNow.Add(-24 * time.Hour)
	tAfter  = tNow.Add(24 * time.Hour)
)

func testTrust() map[string]map[rbac.RoleName]bool {
	return map[string]map[rbac.RoleName]bool{
		"hr.bank.example": {"Teller": true, "Auditor": true},
		"it.bank.example": {"Operator": true},
		"gov.tax.example": {"Manager": true, "Clerk": true},
	}
}

func newAuthority(t *testing.T, name string) *Authority {
	t.Helper()
	a, err := NewAuthority(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIssueAndValidate(t *testing.T) {
	hr := newAuthority(t, "hr.bank.example")
	cvs := NewCVS(testTrust(), nil)
	if err := cvs.RegisterAuthority(hr); err != nil {
		t.Fatal(err)
	}

	cred, err := hr.IssueRole("alice", "Teller", tBefore, tAfter)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cvs.Validate([]Credential{cred}, tNow)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != "alice" {
		t.Errorf("user = %q", got.User)
	}
	if len(got.Roles) != 1 || got.Roles[0] != "Teller" {
		t.Errorf("roles = %v", got.Roles)
	}
	if len(got.Rejected) != 0 {
		t.Errorf("rejected = %v", got.Rejected)
	}
}

func TestValidateRejectsTamperedCredential(t *testing.T) {
	hr := newAuthority(t, "hr.bank.example")
	cvs := NewCVS(testTrust(), nil)
	cvs.RegisterAuthority(hr)

	cred, _ := hr.IssueRole("alice", "Teller", tBefore, tAfter)
	cred.Attributes[0].Value = "Auditor" // privilege escalation attempt
	got, err := cvs.Validate([]Credential{cred}, tNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Roles) != 0 {
		t.Fatalf("tampered credential yielded roles %v", got.Roles)
	}
	if !errors.Is(got.Rejected[0], ErrBadSignature) {
		t.Errorf("rejection = %v", got.Rejected[0])
	}
}

func TestValidateUnknownIssuer(t *testing.T) {
	rogue := newAuthority(t, "rogue.example")
	cvs := NewCVS(testTrust(), nil)
	cred, _ := rogue.IssueRole("alice", "Teller", tBefore, tAfter)
	got, err := cvs.Validate([]Credential{cred}, tNow)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Rejected[0], ErrUnknownIssuer) {
		t.Errorf("rejection = %v", got.Rejected[0])
	}
}

func TestValidateExpiry(t *testing.T) {
	hr := newAuthority(t, "hr.bank.example")
	cvs := NewCVS(testTrust(), nil)
	cvs.RegisterAuthority(hr)
	cred, _ := hr.IssueRole("alice", "Teller", tBefore, tAfter)

	for _, at := range []time.Time{tBefore.Add(-time.Hour), tAfter.Add(time.Hour)} {
		got, err := cvs.Validate([]Credential{cred}, at)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(got.Rejected[0], ErrExpired) {
			t.Errorf("at %v: rejection = %v", at, got.Rejected[0])
		}
	}
}

func TestValidateUntrustedAssignment(t *testing.T) {
	// IT may only assign Operator; an IT-issued Teller must be refused
	// even though the signature is genuine.
	it := newAuthority(t, "it.bank.example")
	cvs := NewCVS(testTrust(), nil)
	cvs.RegisterAuthority(it)
	cred, _ := it.IssueRole("alice", "Teller", tBefore, tAfter)
	got, err := cvs.Validate([]Credential{cred}, tNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Roles) != 0 {
		t.Fatalf("untrusted assignment yielded %v", got.Roles)
	}
	if !errors.Is(got.Rejected[0], ErrUntrustedAssignment) {
		t.Errorf("rejection = %v", got.Rejected[0])
	}
}

func TestValidateAggregatesMultipleIssuers(t *testing.T) {
	// The VO scenario: two independent authorities assign roles to the
	// same user; the CVS aggregates what each is trusted for.
	hr := newAuthority(t, "hr.bank.example")
	it := newAuthority(t, "it.bank.example")
	cvs := NewCVS(testTrust(), nil)
	cvs.RegisterAuthority(hr)
	cvs.RegisterAuthority(it)

	c1, _ := hr.IssueRole("alice", "Teller", tBefore, tAfter)
	c2, _ := it.IssueRole("alice", "Operator", tBefore, tAfter)
	got, err := cvs.Validate([]Credential{c1, c2}, tNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Roles) != 2 {
		t.Fatalf("roles = %v", got.Roles)
	}
}

func TestValidateMixedUsersFails(t *testing.T) {
	hr := newAuthority(t, "hr.bank.example")
	cvs := NewCVS(testTrust(), nil)
	cvs.RegisterAuthority(hr)
	c1, _ := hr.IssueRole("alice", "Teller", tBefore, tAfter)
	c2, _ := hr.IssueRole("bob", "Auditor", tBefore, tAfter)
	if _, err := cvs.Validate([]Credential{c1, c2}, tNow); !errors.Is(err, ErrDistinctUsers) {
		t.Errorf("credentials for two users validated with %v, want ErrDistinctUsers", err)
	}
}

func TestLinkerResolvesAliases(t *testing.T) {
	// The Liberty workaround of §6: tax office knows alice as "TX-9".
	hr := newAuthority(t, "hr.bank.example")
	tax := newAuthority(t, "gov.tax.example")
	linker := NewLinker()
	linker.Link("gov.tax.example", "TX-9", "alice")

	cvs := NewCVS(testTrust(), linker)
	cvs.RegisterAuthority(hr)
	cvs.RegisterAuthority(tax)

	c1, _ := hr.IssueRole("alice", "Teller", tBefore, tAfter)
	c2, _ := tax.IssueRole("TX-9", "Clerk", tBefore, tAfter)
	got, err := cvs.Validate([]Credential{c1, c2}, tNow)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != "alice" {
		t.Errorf("user = %q", got.User)
	}
	if len(got.Roles) != 2 {
		t.Errorf("roles = %v", got.Roles)
	}
}

// TestLinkerKeysPairsApart: a link names one (issuer, holder) pair and
// no other, even when the names contain the characters a joined key
// would have used as its separator.
func TestLinkerKeysPairsApart(t *testing.T) {
	linker := NewLinker()
	linker.Link("a", "b|c", "alice")
	if got := linker.Resolve("a|b", "c"); got != "c" {
		t.Errorf("Resolve(a|b, c) = %q, want the unlinked holder c", got)
	}
	if got := linker.Resolve("a", "b|c"); got != "alice" {
		t.Errorf("Resolve(a, b|c) = %q, want alice", got)
	}

	// The same through validation: a trusted issuer "a|b" asserting
	// holder "c" is user c.
	ab := newAuthority(t, "a|b")
	cvs := NewCVS(map[string]map[rbac.RoleName]bool{"a|b": {"Teller": true}}, linker)
	cvs.RegisterAuthority(ab)
	c, _ := ab.IssueRole("c", "Teller", tBefore, tAfter)
	got, err := cvs.Validate([]Credential{c}, tNow)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != "c" {
		t.Errorf("user = %q, want c", got.User)
	}
}

func TestLinkerWithoutLinkSeparatesUsers(t *testing.T) {
	// Without identity linking, the same physical person under two IDs
	// is two users — exactly the MSoD evasion the paper warns about.
	hr := newAuthority(t, "hr.bank.example")
	tax := newAuthority(t, "gov.tax.example")
	cvs := NewCVS(testTrust(), NewLinker()) // empty linker
	cvs.RegisterAuthority(hr)
	cvs.RegisterAuthority(tax)
	c1, _ := hr.IssueRole("alice", "Teller", tBefore, tAfter)
	c2, _ := tax.IssueRole("TX-9", "Clerk", tBefore, tAfter)
	if _, err := cvs.Validate([]Credential{c1, c2}, tNow); err == nil {
		t.Error("unlinked aliases were merged")
	}
}

func TestIssueValidation(t *testing.T) {
	a := newAuthority(t, "x")
	if _, err := a.Issue("", nil, tBefore, tAfter); err == nil {
		t.Error("empty holder accepted")
	}
	if _, err := a.Issue("u", nil, tAfter, tBefore); err == nil {
		t.Error("inverted validity window accepted")
	}
	if _, err := NewAuthority(""); err == nil {
		t.Error("empty authority name accepted")
	}
}

func TestRegisterIssuerValidation(t *testing.T) {
	cvs := NewCVS(nil, nil)
	if err := cvs.RegisterIssuer("", nil); err == nil {
		t.Error("empty registration accepted")
	}
	if err := cvs.RegisterIssuer("a", []byte{1, 2}); err == nil {
		t.Error("short key accepted")
	}
}

func TestCredentialRoles(t *testing.T) {
	c := Credential{Attributes: []Attribute{{Type: "role", Value: "A"}, {Type: "role", Value: "B"}}}
	roles := c.Roles()
	if len(roles) != 2 || roles[0] != "A" || roles[1] != "B" {
		t.Errorf("Roles() = %v", roles)
	}
}

func TestDeduplicateRolesAcrossCredentials(t *testing.T) {
	hr := newAuthority(t, "hr.bank.example")
	cvs := NewCVS(testTrust(), nil)
	cvs.RegisterAuthority(hr)
	c1, _ := hr.IssueRole("alice", "Teller", tBefore, tAfter)
	c2, _ := hr.IssueRole("alice", "Teller", tBefore, tAfter)
	got, err := cvs.Validate([]Credential{c1, c2}, tNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Roles) != 1 {
		t.Errorf("duplicate roles not merged: %v", got.Roles)
	}
}
