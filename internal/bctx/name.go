// Package bctx implements the hierarchically named business contexts of
// the MSoD model (Chadwick et al., ICDE 2007, §2.2).
//
// A business context identifies the scope over which a multi-session
// separation-of-duty policy persists. Contexts are named by an ordered
// list of type=value components, for example
//
//	Branch=York, Period=2006
//
// The empty name is the universal context (the root of the hierarchy).
// A name A is subordinate to a name B when B's components are a prefix of
// A's components; the universal context is therefore an ancestor of every
// context.
//
// Policy contexts may use two special values:
//
//   - "*" matches every instance value of that component and keeps
//     matching across all of them ("SSD across all instances"), and
//   - "!" matches every instance value of that component but binds the
//     matched value, specialising the policy to that one instance
//     ("DSD per instance").
//
// Instance names (those carried on access requests and stored in the
// retained ADI) must use only concrete values.
package bctx

import (
	"fmt"
	"strings"
)

// Wildcard values usable in policy context components.
const (
	// AnyInstance ("*") matches all instance values of a component and
	// aggregates history across them.
	AnyInstance = "*"
	// PerInstance ("!") matches any one instance value of a component and
	// binds it, so history is segregated per instance.
	PerInstance = "!"
)

// Component is one type=value element of a business context name.
type Component struct {
	// Type is the context type, e.g. "Branch" or "taxRefundProcess".
	Type string
	// Value is the context value: a concrete instance value, or for
	// policy contexts possibly AnyInstance or PerInstance.
	Value string
}

// IsWildcard reports whether the component value is "*" or "!".
func (c Component) IsWildcard() bool {
	return c.Value == AnyInstance || c.Value == PerInstance
}

// String renders the component as "Type=Value".
func (c Component) String() string { return c.Type + "=" + c.Value }

// Name is a business context name: an ordered list of components from the
// most generic context type to the most refined. The zero value is the
// universal context.
type Name struct {
	components []Component
}

// Universal is the root of the context hierarchy; its name is empty.
var Universal = Name{}

// NewName builds a Name from components. It returns an error if any
// component has an empty type or value, contains the reserved
// characters '=' or ',', or starts or ends with whitespace.
func NewName(components ...Component) (Name, error) {
	for i, c := range components {
		if err := checkToken(c.Type); err != nil {
			return Name{}, fmt.Errorf("bctx: component %d type: %w", i, err)
		}
		if err := checkToken(c.Value); err != nil {
			return Name{}, fmt.Errorf("bctx: component %d value: %w", i, err)
		}
	}
	return Name{components: append([]Component(nil), components...)}, nil
}

// MustName is like NewName but panics on error. It is intended for
// tests and for literals known to be valid.
func MustName(components ...Component) Name {
	n, err := NewName(components...)
	if err != nil {
		panic(err)
	}
	return n
}

// checkToken refuses what the textual form cannot carry: Parse trims
// whitespace around every token, so a token with leading or trailing
// whitespace would render to a String that parses back to a different
// name — and a durable store recovering it from its log would hold a
// different instance than the one the decision was recorded under.
func checkToken(s string) error {
	if s == "" {
		return fmt.Errorf("empty token")
	}
	if strings.IndexByte(s, '=') >= 0 || strings.IndexByte(s, ',') >= 0 {
		return fmt.Errorf("token %q contains reserved character", s)
	}
	if strings.TrimSpace(s) != s {
		return fmt.Errorf("token %q has leading or trailing whitespace", s)
	}
	return nil
}

// Parse parses a textual context name of the form
// "Type1=Value1, Type2=Value2". Whitespace around components, types and
// values is ignored. The empty string parses to the universal context.
func Parse(s string) (Name, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Universal, nil
	}
	// One pass over the text and one slice: the tokens are substrings
	// of s, and the name takes the slice as it is. Cut and trimmed
	// tokens are what checkToken demands, but for an '=' inside a value;
	// the first such value is reported once every component has its
	// shape, as when NewName checked them afterwards.
	components := make([]Component, 0, strings.Count(s, ",")+1)
	reserved := -1
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		if part == "" {
			return Name{}, fmt.Errorf("bctx: empty component in %q", s)
		}
		typ, val, ok := strings.Cut(part, "=")
		if !ok {
			return Name{}, fmt.Errorf("bctx: component %q missing '='", part)
		}
		typ, val = strings.TrimSpace(typ), strings.TrimSpace(val)
		if typ == "" || val == "" {
			return Name{}, fmt.Errorf("bctx: component %q has empty type or value", part)
		}
		if reserved < 0 && strings.IndexByte(val, '=') >= 0 {
			reserved = len(components)
		}
		components = append(components, Component{Type: typ, Value: val})
	}
	if reserved >= 0 {
		return Name{}, fmt.Errorf("bctx: component %d value: %w", reserved, checkToken(components[reserved].Value))
	}
	return Name{components: components}, nil
}

// MustParse is like Parse but panics on error.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String renders the name as "Type1=Value1, Type2=Value2". The universal
// context renders as the empty string.
func (n Name) String() string {
	if len(n.components) == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n.TextLen())
	for i, c := range n.components {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Type)
		b.WriteByte('=')
		b.WriteString(c.Value)
	}
	return b.String()
}

// TextLen is the length of the name's text (String), counted without
// building it.
func (n Name) TextLen() int {
	if len(n.components) == 0 {
		return 0
	}
	size := 2 * (len(n.components) - 1)
	for _, c := range n.components {
		size += len(c.Type) + len("=") + len(c.Value)
	}
	return size
}

// Spelled returns the name's canonical text (String), reusing s — the
// text it was parsed from — when s already is that text, so a caller
// that spells names canonically pays no allocation.
func (n Name) Spelled(s string) string {
	rest := s
	for i, c := range n.components {
		if i > 0 && !cutPrefix(&rest, ", ") || !cutPrefix(&rest, c.Type) || !cutPrefix(&rest, "=") || !cutPrefix(&rest, c.Value) {
			return n.String()
		}
	}
	if rest != "" {
		return n.String()
	}
	return s
}

func cutPrefix(s *string, prefix string) bool {
	rest, ok := strings.CutPrefix(*s, prefix)
	*s = rest
	return ok
}

// Components returns a copy of the name's components.
func (n Name) Components() []Component {
	return append([]Component(nil), n.components...)
}

// Len returns the number of components (the depth below the universal
// context).
func (n Name) Len() int { return len(n.components) }

// At returns the i'th component, 0 <= i < Len, without copying the name
// as Components does.
func (n Name) At(i int) Component { return n.components[i] }

// IsUniversal reports whether the name is the universal (root) context.
func (n Name) IsUniversal() bool { return len(n.components) == 0 }

// IsInstance reports whether every component carries a concrete value,
// i.e. the name identifies a single business context instance and is
// usable on an access request or in the retained ADI.
func (n Name) IsInstance() bool {
	for _, c := range n.components {
		if c.IsWildcard() {
			return false
		}
	}
	return true
}

// HasPerInstance reports whether any component uses the "!" value.
func (n Name) HasPerInstance() bool {
	for _, c := range n.components {
		if c.Value == PerInstance {
			return true
		}
	}
	return false
}

// Equal reports whether two names have identical components.
func (n Name) Equal(o Name) bool {
	if len(n.components) != len(o.components) {
		return false
	}
	for i, c := range n.components {
		if o.components[i] != c {
			return false
		}
	}
	return true
}

// Key returns a canonical string usable as a map key. It is identical to
// String but documents intent at call sites.
func (n Name) Key() string { return n.String() }

// AppendText implements encoding.TextAppender: it appends the canonical
// string form (String) to b. It never fails.
func (n Name) AppendText(b []byte) ([]byte, error) {
	for i, c := range n.components {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, c.Type...)
		b = append(b, '=')
		b = append(b, c.Value...)
	}
	return b, nil
}

// MarshalText implements encoding.TextMarshaler using the canonical
// string form, so Names embed naturally in JSON/XML payloads.
func (n Name) MarshalText() ([]byte, error) {
	return n.AppendText(nil)
}

// UnmarshalText implements encoding.TextUnmarshaler via Parse.
func (n *Name) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*n = parsed
	return nil
}

// Parent returns the name with the last component removed. The parent of
// the universal context is the universal context itself.
func (n Name) Parent() Name {
	if len(n.components) == 0 {
		return Universal
	}
	return Name{components: n.components[:len(n.components)-1]}
}

// Child returns the name extended with one more component.
func (n Name) Child(typ, value string) (Name, error) {
	components := append(append([]Component(nil), n.components...), Component{Type: typ, Value: value})
	return NewName(components...)
}

// MustChild is like Child but panics on error.
func (n Name) MustChild(typ, value string) Name {
	c, err := n.Child(typ, value)
	if err != nil {
		panic(err)
	}
	return c
}

// IsAncestorOf reports whether n is a proper ancestor of o in the
// instance hierarchy: n's components are a strict prefix of o's. Only
// concrete component equality is considered; wildcards are not expanded
// (use Matches for policy-context comparison).
func (n Name) IsAncestorOf(o Name) bool {
	if len(n.components) >= len(o.components) {
		return false
	}
	for i, c := range n.components {
		if o.components[i] != c {
			return false
		}
	}
	return true
}

// IsEqualOrSubordinateTo reports whether n equals o or is subordinate to
// (a descendant of) o, comparing concrete components only.
func (n Name) IsEqualOrSubordinateTo(o Name) bool {
	return o.Equal(n) || o.IsAncestorOf(n)
}
