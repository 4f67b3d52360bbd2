package credential

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"os"
	"testing"
	"time"

	"msod/internal/rbac"
)

// fuzzTime spells a validity bound: the zero time, a UTC time, a fixed
// zone (offsets of a day or more are the errors Marshal refuses), or
// local time.
func fuzzTime(zone uint8, sec, nsec int64, offset int32) time.Time {
	switch zone % 4 {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(sec, nsec).UTC()
	case 2:
		return time.Unix(sec, nsec).In(time.FixedZone("", int(offset)))
	}
	return time.Unix(sec, nsec)
}

// FuzzCredentialPayload: the signed payload the CVS builds by hand is
// what json.Marshal wrote for the credential with its signature cleared
// — byte for byte, and the same error for a bound RFC 3339 cannot
// spell — so every credential signed over Marshal's bytes verifies.
func FuzzCredentialPayload(f *testing.F) {
	const (
		nsTime    = int64(1_151_755_200) // 2006-07-01T12:00:00Z
		year10000 = int64(253_402_300_800)
	)
	for _, s := range []string{
		"", "alice", "bank.example", `<script>&amp;</script>`, `say "hi"\n`,
		"tab\there", "line\nbreak", "nul\x00ctl\x1f", "sep\xe2\x80\xa8and\xe2\x80\xa9", "bad\xff\xfeutf8",
		"日本語", "{}[],:", "\b\f\r\x7f", "\xef\xbf\xbd",
	} {
		f.Add(s, s, s, s, uint8(2), uint8(1), nsTime, int64(999_999_999), int32(0), uint8(2), nsTime, int64(1), int32(5400), []byte("sig"))
	}
	for attrs := uint8(0); attrs < 4; attrs++ { // nil, empty, one, three attributes
		f.Add("alice", "bank.example", "role", "Teller", attrs, uint8(1), nsTime, int64(0), int32(0), uint8(1), nsTime+3600, int64(0), int32(0), []byte(nil))
	}
	for zone := uint8(0); zone < 4; zone++ {
		f.Add("alice", "bank.example", "role", "Teller", uint8(2), zone, nsTime, int64(1), int32(-7*3600), zone, nsTime, int64(0), int32(19*60), []byte{})
	}
	f.Add("alice", "bank.example", "role", "Teller", uint8(2), uint8(1), year10000, int64(0), int32(0), uint8(1), nsTime, int64(0), int32(0), []byte(nil))
	f.Add("alice", "bank.example", "role", "Teller", uint8(2), uint8(1), nsTime, int64(0), int32(0), uint8(1), -year10000, int64(0), int32(0), []byte(nil))
	f.Add("alice", "bank.example", "role", "Teller", uint8(2), uint8(2), nsTime, int64(0), int32(-25*3600), uint8(1), nsTime, int64(0), int32(0), []byte(nil))
	f.Add("alice", "bank.example", "role", "Teller", uint8(2), uint8(1), nsTime, int64(0), int32(0), uint8(2), nsTime, int64(0), int32(24*3600), []byte(nil))

	f.Fuzz(func(t *testing.T, holder, issuer, typ, value string, attrs, zone1 uint8, sec1, nsec1 int64, off1 int32, zone2 uint8, sec2, nsec2 int64, off2 int32, sig []byte) {
		c := Credential{Holder: holder, Issuer: issuer,
			NotBefore: fuzzTime(zone1, sec1, nsec1, off1), NotAfter: fuzzTime(zone2, sec2, nsec2, off2)}
		switch attrs % 4 {
		case 1:
			c.Attributes = []Attribute{}
		case 2:
			c.Attributes = []Attribute{{Type: typ, Value: value}}
		case 3:
			c.Attributes = []Attribute{{Type: typ, Value: value}, {Type: value, Value: holder}, {}}
		}
		want, wantErr := json.Marshal(c)
		c.Signature = sig
		got, err := c.payload([]byte("xx"))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != "credential: marshal payload: "+wantErr.Error() {
			t.Fatalf("credential %+v: payload error %v, json.Marshal error %v", c, err, wantErr)
		}
		if err == nil && (!bytes.Equal(got[2:], want) || string(got[:2]) != "xx") {
			t.Fatalf("credential %+v:\npayload      %s\njson.Marshal   %s", c, got, want)
		}
	})
}

// TestParentSignedCredentialVerifies: testdata/parent-credentials.json
// holds an issuer's key and credentials it signed while the payload was
// json.Marshal's — escaped and non-ASCII text, several attributes, none
// (null) and an empty list, nanoseconds and offset zones. Read as
// written, each still verifies, and one altered byte still does not.
func TestParentSignedCredentialVerifies(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent-credentials.json")
	if err != nil {
		t.Fatal(err)
	}
	var parent struct {
		Issuer      string            `json:"issuer"`
		PublicKey   ed25519.PublicKey `json:"publicKey"`
		Credentials []Credential      `json:"credentials"`
	}
	if err := json.Unmarshal(raw, &parent); err != nil {
		t.Fatal(err)
	}
	if len(parent.Credentials) != 4 {
		t.Fatalf("%d credentials in the testdata, want 4", len(parent.Credentials))
	}
	trust := map[string]map[rbac.RoleName]bool{parent.Issuer: {"Teller": true, "Auditor": true, "Teller & Co <x>": true}}
	cvs := NewCVS(trust, nil)
	if err := cvs.RegisterIssuer(parent.Issuer, parent.PublicKey); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2007, 4, 15, 9, 0, 0, 0, time.UTC)
	for i, c := range parent.Credentials {
		got, err := cvs.Validate([]Credential{c}, at)
		if err != nil || len(got.Rejected) != 0 || got.User != rbac.UserID(c.Holder) || len(got.Roles) != len(c.Attributes) {
			t.Fatalf("credential %d (%s): %+v, %v", i, c.Holder, got, err)
		}
		c.Holder += "x"
		if got, _ := cvs.Validate([]Credential{c}, at); len(got.Rejected) != 1 {
			t.Fatalf("credential %d verified with its holder altered", i)
		}
	}
}
