package bctx

import (
	"fmt"
	"slices"
)

// MatchInstance reports whether the concrete context instance inst falls
// within the scope of the (possibly wildcarded) policy context pattern:
// inst is equal to or subordinate to pattern, where a pattern component
// with value "*" or "!" matches any instance value of the same type.
//
// This is the matching rule of step 1 (against the request's context
// instance) and step 3 (against retained-ADI context instances) of the
// §4.2 enforcement algorithm. An error is returned if inst is not a pure
// instance name.
func MatchInstance(pattern, inst Name) (bool, error) {
	if !inst.IsInstance() {
		return false, fmt.Errorf("bctx: %q is not a context instance (contains wildcards)", inst)
	}
	return matchPrefix(pattern, inst), nil
}

// matchPrefix reports whether pattern's components are a prefix of
// name's, treating "*" and "!" in pattern as matching any value.
func matchPrefix(pattern, name Name) bool {
	if len(pattern.components) > len(name.components) {
		return false
	}
	for i, pc := range pattern.components {
		nc := name.components[i]
		if pc.Type != nc.Type {
			return false
		}
		if pc.IsWildcard() {
			continue
		}
		if pc.Value != nc.Value {
			return false
		}
	}
	return true
}

// Bind specialises a per-instance policy context to a matched request
// instance, implementing the step-1 clause "if a matched policy pertains
// to a single business context instance (!), replace policy business
// context with the instance of the input business context".
//
// Every "!" component takes the concrete value from inst at the same
// position; "*" components and concrete components are left unchanged.
// Bind must only be called after MatchInstance(pattern, inst) reported
// true; it returns an error otherwise.
func Bind(pattern, inst Name) (Name, error) {
	if !inst.IsInstance() {
		return Name{}, fmt.Errorf("bctx: %q is not a context instance (contains wildcards)", inst)
	}
	bound, ok := MatchBind(pattern, inst)
	if !ok {
		return Name{}, fmt.Errorf("bctx: instance %q does not match policy context %q", inst, pattern)
	}
	return bound, nil
}

// MatchBind is MatchInstance and Bind in one pass, for a caller that has
// already checked inst.IsInstance (the engine validates a request once,
// not once per policy). ok reports whether inst falls within pattern;
// bound is then pattern with its "!" components bound to inst.
//
// Names are immutable, so most bindings need no new name: a pattern
// without "!" is its own binding, and a pattern without "*" binds to
// inst itself, or to the prefix of inst's components it spans. Only a
// "!" beside a "*" (Mixed) allocates.
func MatchBind(pattern, inst Name) (bound Name, ok bool) {
	if !matchPrefix(pattern, inst) {
		return Name{}, false
	}
	perInstance, anyInstance := false, false
	for _, pc := range pattern.components {
		perInstance = perInstance || pc.Value == PerInstance
		anyInstance = anyInstance || pc.Value == AnyInstance
	}
	switch n := len(pattern.components); {
	case !perInstance:
		return pattern, true
	case !anyInstance:
		// Every component of the binding is inst's: the matched types
		// and concrete values, and the values "!" takes.
		return Name{components: inst.components[:n:n]}, true
	}
	components := make([]Component, len(pattern.components))
	for i, pc := range pattern.components {
		if pc.Value == PerInstance {
			pc.Value = inst.components[i].Value
		}
		components[i] = pc
	}
	return Name{components: components}, true
}

// Mixed reports whether pattern has a "!" beside a "*": the one shape
// MatchBind builds a new name for, whatever the instance.
func Mixed(pattern Name) bool {
	return pattern.HasPerInstance() && slices.ContainsFunc(pattern.components,
		func(c Component) bool { return c.Value == AnyInstance })
}

// IsBinding reports whether bound is, component for component, the name
// MatchBind(pattern, inst) binds for an inst that falls within pattern:
// pattern with each "!" value replaced by inst's value at its position.
// It allocates nothing, so a caller that keeps the names it has bound
// can tell when one serves a new request.
func IsBinding(bound, pattern, inst Name) bool {
	if len(bound.components) != len(pattern.components) || len(inst.components) < len(pattern.components) {
		return false
	}
	for i, pc := range pattern.components {
		if pc.Value == PerInstance {
			pc.Value = inst.components[i].Value
		}
		if bound.components[i] != pc {
			return false
		}
	}
	return true
}

// Subsumes reports whether pattern a's scope includes pattern b's scope
// for every possible instance: any instance matching b also matches a.
// Both names may contain wildcards. It is used to relate MSoD policies to
// one another ("all contexts which are equal or subordinate to the
// context in the MMER rule should be applied with the MMER rule").
func Subsumes(a, b Name) bool {
	if len(a.components) > len(b.components) {
		return false
	}
	for i, ac := range a.components {
		bc := b.components[i]
		if ac.Type != bc.Type {
			return false
		}
		if ac.IsWildcard() {
			// "*" and "!" both accept any value at this position.
			continue
		}
		if bc.IsWildcard() {
			// b accepts values a does not.
			return false
		}
		if ac.Value != bc.Value {
			return false
		}
	}
	return true
}
