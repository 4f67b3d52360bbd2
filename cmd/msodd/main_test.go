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
	// before it is durable.
	for _, args := range [][]string{{"-nonsense"}, {"-adi-sync"}} {
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
		{[]string{"-replica-of", "http://owner", "-trail", "t"}, "-replica-of conflicts with -trail"},
		{[]string{"-replica-of", "http://owner", "-adi", "a"}, "-replica-of conflicts with -adi"},
		{[]string{"-replica-of", "http://owner", "-recover", "trail"}, "-replica-of conflicts with -recover"},
		{[]string{"-replica-of", "http://owner", "-handoff"}, "-replica-of conflicts with -handoff"},
		{[]string{"-replica-of", "http://owner"}, ""},
		// A cluster shard recovered from its trail would come back without
		// the instances its peers opened: a false-grant path.
		{[]string{"-handoff", "-recover", "trail", "-trail", "t"}, "-recover trail conflicts with -handoff"},
		// -adi overrides -recover: the durable store keeps what the trail
		// lacks.
		{[]string{"-handoff", "-recover", "trail", "-trail", "t", "-adi", "a"}, ""},
		{[]string{"-handoff", "-recover", "snapshot"}, ""},
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
