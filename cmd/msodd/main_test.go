package main

import (
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	if _, err := parseFlags([]string{}); err == nil {
		t.Error("missing -policy accepted")
	}
	o, err := parseFlags([]string{"-policy", "p.xml", "-addr", ":0"})
	if err != nil || o.Policy != "p.xml" || o.Addr != ":0" {
		t.Errorf("parse = %+v, %v", o, err)
	}
	// -adi always syncs every mutation: there is no knob to ack a grant
	// before it is durable, and no sealed snapshot that nothing writes.
	// Nor is there a read-replica mode: only the owner's PDP answers.
	// A kept span tree lives in its decision's record, which
	// -explain-capacity sizes, and -slowlog is the slow threshold.
	for _, args := range [][]string{{"-nonsense"}, {"-adi-sync"},
		{"-snapshot", "adi.sealed"}, {"-snapshot-secret-file", "secret"},
		{"-replica-of", "http://owner"}, {"-max-staleness", "1s"},
		{"-trace-capacity", "8"}, {"-trace-slow-threshold", "1s"}} {
		if _, err := parseFlags(append([]string{"-policy", "p.xml"}, args...)); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

// TestParseFlagsConflicts: flag pairs that cannot both hold are refused
// at start-up, naming the pair; the pairs that can are accepted.
func TestParseFlagsConflicts(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		conflict string // "" when the flags are accepted
	}{
		// A cluster shard recovered from its trail would come back without
		// the instances its peers opened: a false-grant path.
		{[]string{"-handoff", "-recover", "trail", "-trail", "t"}, "-recover trail conflicts with -handoff"},
		// -adi overrides -recover: the durable store keeps what the trail
		// lacks.
		{[]string{"-handoff", "-recover", "trail", "-trail", "t", "-adi", "a"}, ""},
		// There is no snapshot mode: nothing wrote the sealed snapshot it
		// loaded, so a restart forgot the grants acked since boot.
		{[]string{"-handoff", "-recover", "snapshot"}, `-recover "snapshot": want none or trail`},
		{[]string{"-recover", "trail", "-trail", "t"}, ""},
	} {
		_, err := parseFlags(append([]string{"-policy", "p.xml"}, tc.args...))
		switch {
		case tc.conflict == "" && err != nil:
			t.Errorf("%q refused: %v", tc.args, err)
		case tc.conflict != "" && (err == nil || !strings.Contains(err.Error(), tc.conflict)):
			t.Errorf("%q = %v, want the %q refusal", tc.args, err, tc.conflict)
		}
	}
}
