package credential

import (
	"testing"

	"msod/internal/race"
)

// TestValidateAllocs is the CVS's allocation budget for one trusted
// credential of one role, as a credential-bearing request carries it:
// the validated roles (1). The signed payload is built in a buffer on
// the stack and Ed25519 verifies it there; no rejection map is made
// when nothing is rejected. It was 6 while the payload was json.Marshal's
// (the credential boxed, its two time texts, the result: 4) and the
// rejection map was made for every call (1).
func TestValidateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	hr := newAuthority(t, "hr.bank.example")
	cvs := NewCVS(testTrust(), nil)
	if err := cvs.RegisterAuthority(hr); err != nil {
		t.Fatal(err)
	}
	cred, err := hr.IssueRole("alice", "Teller", tBefore, tAfter)
	if err != nil {
		t.Fatal(err)
	}
	creds := []Credential{cred}
	var got Validated
	allocs := testing.AllocsPerRun(200, func() {
		if got, err = cvs.Validate(creds, tNow); err != nil {
			t.Fatal(err)
		}
	})
	if got.User != "alice" || len(got.Roles) != 1 || got.Rejected != nil {
		t.Fatalf("validated %+v", got)
	}
	if allocs != 1 {
		t.Fatalf("%v allocs, budget 1", allocs)
	}
}
