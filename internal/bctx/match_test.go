package bctx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatchInstance(t *testing.T) {
	cases := []struct {
		pattern string
		inst    string
		want    bool
	}{
		// Paper Figure 2 examples: bank policy contexts.
		{"Branch=*, Period=!", "Branch=York, Period=2006", true},
		{"Branch=*, Period=!", "Branch=Leeds, Period=2006", true},
		{"Branch=!, Period=!", "Branch=York, Period=2006", true},
		{"Branch=York, Period=!", "Branch=York, Period=2006", true},
		{"Branch=York, Period=!", "Branch=Leeds, Period=2006", false},
		// Subordinate instances match (equal or subordinate).
		{"Branch=*, Period=!", "Branch=York, Period=2006, Till=4", true},
		// Universal policy context matches everything.
		{"", "Branch=York", true},
		{"", "", true},
		// Instance shallower than pattern: no match.
		{"Branch=*, Period=!", "Branch=York", false},
		// Type mismatch.
		{"Branch=*", "Office=York", false},
		// Tax refund example.
		{"TaxOffice=!, taxRefundProcess=!", "TaxOffice=Leeds, taxRefundProcess=77", true},
		{"TaxOffice=!, taxRefundProcess=!", "TaxOffice=Leeds", false},
	}
	for _, c := range cases {
		got, err := MatchInstance(MustParse(c.pattern), MustParse(c.inst))
		if err != nil {
			t.Fatalf("MatchInstance(%q, %q): %v", c.pattern, c.inst, err)
		}
		if got != c.want {
			t.Errorf("MatchInstance(%q, %q) = %v, want %v", c.pattern, c.inst, got, c.want)
		}
	}
}

func TestMatchInstanceRejectsWildcardInstance(t *testing.T) {
	if _, err := MatchInstance(MustParse("A=*"), MustParse("A=!")); err == nil {
		t.Error("expected error for wildcard instance")
	}
}

func TestBind(t *testing.T) {
	cases := []struct {
		pattern string
		inst    string
		want    string
	}{
		// "!" binds to the request instance value; "*" stays "*".
		{"Branch=*, Period=!", "Branch=York, Period=2006", "Branch=*, Period=2006"},
		{"Branch=!, Period=!", "Branch=York, Period=2006", "Branch=York, Period=2006"},
		{"Branch=York, Period=!", "Branch=York, Period=2006", "Branch=York, Period=2006"},
		// Binding from a deeper instance uses the positional values.
		{"Branch=*, Period=!", "Branch=York, Period=2006, Till=4", "Branch=*, Period=2006"},
		// No wildcards: identity.
		{"Branch=York", "Branch=York", "Branch=York"},
		{"", "Branch=York", ""},
	}
	for _, c := range cases {
		got, err := Bind(MustParse(c.pattern), MustParse(c.inst))
		if err != nil {
			t.Fatalf("Bind(%q, %q): %v", c.pattern, c.inst, err)
		}
		if got.String() != c.want {
			t.Errorf("Bind(%q, %q) = %q, want %q", c.pattern, c.inst, got, c.want)
		}
	}
}

func TestBindRequiresMatch(t *testing.T) {
	if _, err := Bind(MustParse("Branch=York, Period=!"), MustParse("Branch=Leeds, Period=2006")); err == nil {
		t.Error("Bind should fail when the instance does not match")
	}
}

func TestSubsumes(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"", "Branch=*", true},
		{"Branch=*", "Branch=York", true},
		{"Branch=!", "Branch=York", true},
		{"Branch=York", "Branch=*", false},
		{"Branch=*", "Branch=*, Period=!", true},
		{"Branch=*, Period=!", "Branch=*", false},
		{"Branch=York", "Branch=York", true},
		{"Branch=York", "Branch=Leeds", false},
		{"Office=*", "Branch=*", false},
	}
	for _, c := range cases {
		if got := Subsumes(MustParse(c.a), MustParse(c.b)); got != c.want {
			t.Errorf("Subsumes(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: binding produces a pattern that (a) still matches the
// instance it was bound from, and (b) has no remaining "!" components.
func TestQuickBindStabilises(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		pattern := genName(r, 4, true)
		inst := genName(r, 6, false)
		ok, err := MatchInstance(pattern, inst)
		if err != nil || !ok {
			return true // vacuous
		}
		bound, err := Bind(pattern, inst)
		if err != nil {
			return false
		}
		if bound.HasPerInstance() {
			return false
		}
		ok2, err := MatchInstance(bound, inst)
		if err != nil || !ok2 {
			return false
		}
		// Binding twice is idempotent.
		bound2, err := Bind(bound, inst)
		if err != nil || !bound2.Equal(bound) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: MatchBind binds each "!" to the instance's value at its
// position and keeps every other component, and IsBinding holds exactly
// for that name: the one bound from the same instance, or any equal
// one, and never the binding of another instance with other "!" values.
func TestQuickIsBinding(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func() bool {
		pattern := genName(r, 4, true)
		inst, other := genName(r, 6, false), genName(r, 6, false)
		bound, ok := MatchBind(pattern, inst)
		if !ok {
			return true // vacuous
		}
		want := pattern.Components()
		for i := range want {
			if want[i].Value == PerInstance {
				want[i].Value = inst.At(i).Value
			}
		}
		if !bound.Equal(MustName(want...)) || !IsBinding(bound, pattern, inst) || !IsBinding(MustName(want...), pattern, inst) {
			t.Logf("MatchBind(%q, %q) = %q, want %q", pattern, inst, bound, MustName(want...))
			return false
		}
		if otherBound, ok := MatchBind(pattern, other); ok && IsBinding(bound, pattern, other) != otherBound.Equal(bound) {
			t.Logf("IsBinding(%q, %q, %q) disagrees with the binding %q", bound, pattern, other, otherBound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// TestMixed: a "!" beside a "*" is the one shape binding builds a name
// for.
func TestMixed(t *testing.T) {
	for pattern, want := range map[string]bool{
		"Branch=*, Period=!":    true,
		"Period=!, Branch=*":    true,
		"Branch=!, Period=!":    false,
		"Branch=York, Period=!": false,
		"Branch=*, Period=*":    false,
		"":                      false,
	} {
		if got := Mixed(MustParse(pattern)); got != want {
			t.Errorf("Mixed(%q) = %v, want %v", pattern, got, want)
		}
	}
}

// Property: Subsumes is consistent with MatchInstance — if a subsumes b
// and an instance matches b, it matches a.
func TestQuickSubsumesConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		a := genName(r, 3, true)
		b := genName(r, 3, true)
		inst := genName(r, 5, false)
		if !Subsumes(a, b) {
			return true // vacuous
		}
		mb, err := MatchInstance(b, inst)
		if err != nil {
			return false
		}
		if !mb {
			return true // vacuous
		}
		ma, err := MatchInstance(a, inst)
		return err == nil && ma
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}
