package bctx

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantLen int
	}{
		{"", "", 0},
		{"   ", "", 0},
		{"Branch=*, Period=!", "Branch=*, Period=!", 2},
		{"Branch=York,Period=2006", "Branch=York, Period=2006", 2},
		{"  TaxOffice = ! ,  taxRefundProcess = ! ", "TaxOffice=!, taxRefundProcess=!", 2},
		{"A=1", "A=1", 1},
	}
	for _, c := range cases {
		n, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := n.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		if n.Len() != c.wantLen {
			t.Errorf("Parse(%q).Len() = %d, want %d", c.in, n.Len(), c.wantLen)
		}
		// Reparse the canonical form and check equality.
		n2, err := Parse(n.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", n.String(), err)
		}
		if !n.Equal(n2) {
			t.Errorf("reparse of %q not equal", n.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"Branch",         // missing '='
		"Branch=",        // empty value
		"=York",          // empty type
		"Branch=York,,",  // empty component
		"Branch=York, ,", // blank component
		"A=1,B",          // second missing '='
		",",              // only separator
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error, got nil", in)
		}
	}
}

func TestNewNameRejectsReservedCharacters(t *testing.T) {
	if _, err := NewName(Component{Type: "A=B", Value: "x"}); err == nil {
		t.Error("type with '=' accepted")
	}
	if _, err := NewName(Component{Type: "A", Value: "x,y"}); err == nil {
		t.Error("value with ',' accepted")
	}
	if _, err := NewName(Component{Type: "", Value: "x"}); err == nil {
		t.Error("empty type accepted")
	}
}

func TestUniversalProperties(t *testing.T) {
	if !Universal.IsUniversal() {
		t.Error("Universal.IsUniversal() = false")
	}
	if !Universal.IsInstance() {
		t.Error("Universal.IsInstance() = false")
	}
	if Universal.String() != "" {
		t.Errorf("Universal.String() = %q", Universal.String())
	}
	if !Universal.Parent().IsUniversal() {
		t.Error("parent of universal is not universal")
	}
	child := Universal.MustChild("Branch", "York")
	if !Universal.IsAncestorOf(child) {
		t.Error("universal not ancestor of child")
	}
	if child.IsAncestorOf(Universal) {
		t.Error("child is ancestor of universal")
	}
}

func TestAncestry(t *testing.T) {
	bank := MustParse("Branch=York")
	period := bank.MustChild("Period", "2006")
	other := MustParse("Branch=Leeds")

	if !bank.IsAncestorOf(period) {
		t.Error("Branch=York should be ancestor of Branch=York, Period=2006")
	}
	if bank.IsAncestorOf(bank) {
		t.Error("IsAncestorOf must be strict")
	}
	if !period.IsEqualOrSubordinateTo(bank) {
		t.Error("period should be subordinate to bank")
	}
	if !period.IsEqualOrSubordinateTo(period) {
		t.Error("name should be equal-or-subordinate to itself")
	}
	if other.IsEqualOrSubordinateTo(bank) {
		t.Error("Branch=Leeds is not subordinate to Branch=York")
	}
	if period.Parent().String() != "Branch=York" {
		t.Errorf("Parent = %q", period.Parent().String())
	}
}

func TestIsInstanceAndHasPerInstance(t *testing.T) {
	cases := []struct {
		in          string
		instance    bool
		perInstance bool
	}{
		{"Branch=*, Period=!", false, true},
		{"Branch=York, Period=2006", true, false},
		{"Branch=*, Period=2006", false, false},
		{"", true, false},
	}
	for _, c := range cases {
		n := MustParse(c.in)
		if n.IsInstance() != c.instance {
			t.Errorf("%q IsInstance = %v, want %v", c.in, n.IsInstance(), c.instance)
		}
		if n.HasPerInstance() != c.perInstance {
			t.Errorf("%q HasPerInstance = %v, want %v", c.in, n.HasPerInstance(), c.perInstance)
		}
	}
}

func TestComponentsReturnsCopy(t *testing.T) {
	n := MustParse("A=1, B=2")
	cs := n.Components()
	cs[0].Value = "mutated"
	if n.String() != "A=1, B=2" {
		t.Errorf("Components leaked internal state: %q", n)
	}
}

// genName produces a random valid name for property tests. Wildcards are
// included when allowWild is true.
func genName(r *rand.Rand, maxDepth int, allowWild bool) Name {
	depth := r.Intn(maxDepth + 1)
	comps := make([]Component, depth)
	for i := range comps {
		comps[i].Type = string(rune('A' + i)) // deterministic type chain
		switch v := r.Intn(6); {
		case allowWild && v == 0:
			comps[i].Value = AnyInstance
		case allowWild && v == 1:
			comps[i].Value = PerInstance
		default:
			comps[i].Value = string(rune('a' + r.Intn(3)))
		}
	}
	return MustName(comps...)
}

func TestQuickParseStringInverse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		n := genName(r, 5, true)
		parsed, err := Parse(n.String())
		if err != nil {
			return false
		}
		return parsed.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: a name NewName accepts is a name its text carries —
// Parse(n.String()) gives n back — for tokens with whitespace at either
// end and inside. A durable store logs String() and recovers through
// Parse, so a name that fails this comes back from a restart as a
// different instance.
func TestQuickNewNameRoundTrips(t *testing.T) {
	tokens := []string{"a", "b c", " a", "a ", "\ta", "a\n", " ", "\u00a0a", "a\u2003", "*", "!", ""}
	r := rand.New(rand.NewSource(4))
	accepted := 0
	f := func() bool {
		comps := make([]Component, 1+r.Intn(3))
		for i := range comps {
			comps[i] = Component{Type: tokens[r.Intn(len(tokens))], Value: tokens[r.Intn(len(tokens))]}
		}
		n, err := NewName(comps...)
		if err != nil {
			return true
		}
		accepted++
		parsed, err := Parse(n.String())
		if err != nil || !parsed.Equal(n) {
			t.Logf("NewName(%q) renders %q, which parses to %q, %v", comps, n.String(), parsed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if accepted == 0 {
		t.Error("the generator never produced an acceptable name")
	}
}

func TestQuickAncestryIsPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		n := genName(r, 5, false)
		if n.IsUniversal() {
			return true
		}
		p := n.Parent()
		// Parent is always a proper ancestor, and string prefix holds.
		if !p.IsAncestorOf(n) {
			return false
		}
		if !strings.HasPrefix(n.String(), p.String()) {
			return false
		}
		return n.IsEqualOrSubordinateTo(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualIsReflexiveSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a := genName(r, 4, true)
		b := genName(r, 4, true)
		if !a.Equal(a) {
			return false
		}
		if a.Equal(b) != b.Equal(a) {
			return false
		}
		if a.Equal(b) && !reflect.DeepEqual(a.Components(), b.Components()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTextMarshalling(t *testing.T) {
	n := MustParse("Branch=*, Period=!")
	b, err := n.MarshalText()
	if err != nil || string(b) != "Branch=*, Period=!" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	var out Name
	if err := out.UnmarshalText(b); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(n) {
		t.Errorf("round trip = %q", out)
	}
	if err := out.UnmarshalText([]byte("===")); err == nil {
		t.Error("bad text accepted")
	}
	// JSON embedding uses the text form.
	type payload struct {
		Ctx Name `json:"ctx"`
	}
	raw, err := json.Marshal(payload{Ctx: n})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"ctx":"Branch=*, Period=!"}` {
		t.Errorf("json = %s", raw)
	}
	var p2 payload
	if err := json.Unmarshal(raw, &p2); err != nil {
		t.Fatal(err)
	}
	if !p2.Ctx.Equal(n) {
		t.Errorf("json round trip = %q", p2.Ctx)
	}
}

// TestSpelled: Spelled gives String's text for every spelling Parse
// accepts, and hands the caller's own text back, the same string, when
// it already is the canonical one.
func TestSpelled(t *testing.T) {
	for _, s := range []string{
		"Branch=York, Period=p1", "Branch=York,Period=p1", " Branch = York , Period=p1", "Branch=York, Period=p1 ",
		"Branch=York,  Period=p1", "Branch=York, Period=p", "Branch=York, Period=p12", "Branch=York", "", "  ",
	} {
		n, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		got := n.Spelled(s)
		if got != n.String() {
			t.Errorf("Spelled(%q) = %q, want %q", s, got, n.String())
		}
		if s == n.String() && s != "" && unsafe.StringData(got) != unsafe.StringData(s) {
			t.Errorf("Spelled(%q) rendered a copy of text already canonical", s)
		}
	}
}

func TestQuickSpelledIsString(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		n := genName(r, 4, true)
		text := n.String()
		for _, s := range []string{text, strings.ReplaceAll(text, ", ", ","), text + " "} {
			if parsed := MustParse(s); parsed.Spelled(s) != text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAppendText: AppendText appends String's text after what the
// buffer held, the universal context's empty text included.
func TestAppendText(t *testing.T) {
	for _, s := range []string{"", "Branch=York", "Branch=*, Period=!", "TaxOffice=o1, taxRefundProcess=x<&>"} {
		n := MustParse(s)
		got, err := n.AppendText([]byte("xx"))
		if err != nil || string(got) != "xx"+n.String() {
			t.Errorf("AppendText(%q) = %q, %v", s, got, err)
		}
	}
}
