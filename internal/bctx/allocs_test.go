package bctx

import (
	"testing"

	"msod/internal/race"
)

// TestNameAllocs: parsing a name allocates its component slice and
// nothing else, spelling it canonically allocates only when the text it
// was parsed from is not already canonical, matching allocates
// nothing, and binding allocates a new name only for a "!" beside a
// "*": otherwise the pattern, the instance or a prefix of the instance
// already is the bound context.
func TestNameAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	inst := MustParse("Branch=York, Period=2006")
	if got := testing.AllocsPerRun(100, func() {
		if _, err := Parse(" Branch = York , Period=2006"); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("Parse of a two-component name: %v allocations, budget 1", got)
	}
	for s, budget := range map[string]float64{"Branch=York, Period=2006": 0, "Branch=York,Period=2006": 1} {
		if got := testing.AllocsPerRun(100, func() { inst.Spelled(s) }); got != budget {
			t.Errorf("Spelled(%q): %v allocations, budget %v", s, got, budget)
		}
	}
	for _, tc := range []struct {
		pattern, bound Name
		budget         float64
	}{
		{MustParse("Branch=*, Period=!"), MustParse("Branch=*, Period=2006"), 1}, // a new name
		{MustParse("Branch=!, Period=!"), inst, 0},                               // the instance itself
		{MustParse("Branch=!"), MustParse("Branch=York"), 0},                     // a prefix of the instance
		{MustParse("Branch=*"), MustParse("Branch=*"), 0},                        // the pattern itself
		{Universal, Universal, 0},
	} {
		if got := testing.AllocsPerRun(100, func() {
			if ok, err := MatchInstance(tc.pattern, inst); err != nil || !ok {
				t.Fatal(ok, err)
			}
		}); got != 0 {
			t.Errorf("MatchInstance(%q): %v allocations, budget 0", tc.pattern, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			if bound, err := Bind(tc.pattern, inst); err != nil || !bound.Equal(tc.bound) {
				t.Fatalf("Bind(%q, %q) = %q, %v; want %q", tc.pattern, inst, bound, err, tc.bound)
			}
		}); got != tc.budget {
			t.Errorf("Bind(%q): %v allocations, budget %v", tc.pattern, got, tc.budget)
		}
	}
}
