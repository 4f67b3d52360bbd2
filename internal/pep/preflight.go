package pep

import (
	"fmt"

	"msod/internal/pdp"
	"msod/internal/rbac"
)

// Advisor answers side-effect-free "would this be granted right now?"
// queries. *pdp.PDP satisfies it directly (its advisory path).
type Advisor interface {
	Advise(req pdp.Request) (pdp.Decision, error)
}

// Preflight answers "would Do grant this right now?" with zero side
// effects: nothing is recorded, nothing is purged, no audit event is
// written. The answer is the Decider's own advisory path, so it comes
// from the PDP that holds the subject's retained ADI; a Decider that
// does not implement Advisor is a configuration error.
//
// The usual advisory TOCTOU caveat applies (see core.Engine.Peek):
// treat a Grant as "worth trying", never as authorisation to skip Do.
func (e *Enforcer) Preflight(op rbac.Operation, target rbac.Object) (pdp.Decision, error) {
	a, ok := e.pdp.(Advisor)
	if !ok {
		return pdp.Decision{}, fmt.Errorf("pep: no advisory path: decider %T implements no Advise", e.pdp)
	}
	return a.Advise(pdp.Request{
		User:        e.subject.User,
		Roles:       e.subject.Roles,
		Credentials: e.subject.Credentials,
		Operation:   op,
		Target:      target,
		Context:     e.ctx,
	})
}
