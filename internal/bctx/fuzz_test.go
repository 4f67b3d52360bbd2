package bctx

import (
	"strings"
	"testing"
)

// FuzzParse checks the parser never panics and that accepted names
// round-trip through their canonical string form.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"Branch=*, Period=!",
		"Branch=York,Period=2006",
		"A=1, B=2, C=3",
		"  X = y  ",
		"A==",
		",,,",
		"A=1,",
		"=",
		"A=\x00",
		"Branch= York",
		"A =\tb , C\u00a0=d",
		strings.Repeat("A=1, ", 50),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		n, err := Parse(in)
		if err != nil {
			return
		}
		if n.TextLen() != len(n.String()) {
			t.Fatalf("TextLen of %q = %d", n.String(), n.TextLen())
		}
		// Canonical round trip.
		n2, err := Parse(n.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", n.String(), in, err)
		}
		if !n.Equal(n2) {
			t.Fatalf("round trip changed %q -> %q", n.String(), n2.String())
		}
		// Matching against itself holds for instances.
		if n.IsInstance() {
			ok, err := MatchInstance(n, n)
			if err != nil || !ok {
				t.Fatalf("instance %q does not match itself: %v %v", n, ok, err)
			}
		}
		// Every name is subordinate to the universal context.
		if !n.IsEqualOrSubordinateTo(Universal) {
			t.Fatalf("%q not subordinate to universal", n)
		}
		// The same tokens untrimmed, as an embedding application might
		// hand them to NewName: accepted only if the text carries them.
		var raw []Component
		for _, part := range strings.Split(in, ",") {
			typ, val, _ := strings.Cut(part, "=")
			raw = append(raw, Component{Type: typ, Value: val})
		}
		if built, err := NewName(raw...); err == nil {
			if back, err := Parse(built.String()); err != nil || !back.Equal(built) {
				t.Fatalf("NewName(%q) renders %q, which parses to %q, %v", raw, built.String(), back, err)
			}
		}
	})
}

// FuzzMatchBind checks the match/bind pair on arbitrary pattern and
// instance strings: Bind succeeds exactly when MatchInstance holds, and
// the bound pattern still matches.
func FuzzMatchBind(f *testing.F) {
	f.Add("Branch=*, Period=!", "Branch=York, Period=2006")
	f.Add("A=!", "A=1, B=2")
	f.Add("", "A=1")
	f.Add("A=x", "A=y")
	f.Fuzz(func(t *testing.T, pat, inst string) {
		p, err := Parse(pat)
		if err != nil {
			return
		}
		i, err := Parse(inst)
		if err != nil || !i.IsInstance() {
			return
		}
		ok, err := MatchInstance(p, i)
		if err != nil {
			t.Fatalf("MatchInstance(%q, %q): %v", p, i, err)
		}
		bound, berr := Bind(p, i)
		if ok != (berr == nil) {
			t.Fatalf("Bind success (%v) disagrees with match (%v)", berr, ok)
		}
		if ok {
			ok2, err := MatchInstance(bound, i)
			if err != nil || !ok2 {
				t.Fatalf("bound %q no longer matches %q", bound, i)
			}
		}
	})
}
