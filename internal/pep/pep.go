// Package pep implements the Policy Enforcement Point side of the ISO
// 10181-3 framework (the AEF of Figure 3): application helpers that
// gather the decision-request parameters — initiator identity or
// credentials, the requested operation and target, and crucially the
// current business context instance, which §4.1 makes the PEP's job to
// identify — submit them to a PDP, and enforce the answer.
//
// Two deployment shapes are covered: an in-process Enforcer around a
// Decider, which *pdp.PDP satisfies, and Middleware, which guards
// http.Handlers with one.
package pep

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"msod/internal/bctx"
	"msod/internal/credential"
	"msod/internal/pdp"
	"msod/internal/rbac"
)

// ErrDenied is returned by Enforcer.Do when the PDP denies.
var ErrDenied = errors.New("pep: access denied")

// Decider abstracts the PDP the PEP submits requests to; *pdp.PDP
// satisfies it.
type Decider interface {
	Decide(req pdp.Request) (pdp.Decision, error)
}

// Subject is the initiator the PEP acts for: either a pre-validated
// user with activated roles, or a bundle of signed credentials the PDP's
// CVS will validate.
type Subject struct {
	User        rbac.UserID
	Roles       []rbac.RoleName
	Credentials []credential.Credential
}

// Enforcer binds a subject and a business context to a PDP, so the
// application can guard actions with one call. The zero value is not
// usable; use New.
type Enforcer struct {
	pdp     Decider
	subject Subject
	ctx     bctx.Name
}

// New builds an enforcer for the subject within the context instance.
func New(d Decider, subject Subject, ctx bctx.Name) (*Enforcer, error) {
	if d == nil {
		return nil, fmt.Errorf("pep: nil decider")
	}
	if !ctx.IsInstance() {
		return nil, fmt.Errorf("pep: context %q is not an instance", ctx)
	}
	return &Enforcer{pdp: d, subject: subject, ctx: ctx}, nil
}

// InContext returns an enforcer for the same subject in a different
// business context instance (e.g. moving to the next process instance).
func (e *Enforcer) InContext(ctx bctx.Name) (*Enforcer, error) {
	return New(e.pdp, e.subject, ctx)
}

// Do submits (operation, target) and enforces the decision: nil on
// grant, ErrDenied (wrapped with the PDP's reason) on deny.
func (e *Enforcer) Do(op rbac.Operation, target rbac.Object) error {
	dec, err := e.Check(op, target)
	if err != nil {
		return err
	}
	if !dec.Allowed {
		return fmt.Errorf("%w: %s on %s (%s): %s", ErrDenied, op, target, dec.Phase, dec.Reason())
	}
	return nil
}

// Check submits (operation, target) and returns the full decision
// without enforcing it.
func (e *Enforcer) Check(op rbac.Operation, target rbac.Object) (pdp.Decision, error) {
	return e.pdp.Decide(pdp.Request{
		User:        e.subject.User,
		Roles:       e.subject.Roles,
		Credentials: e.subject.Credentials,
		Operation:   op,
		Target:      target,
		Context:     e.ctx,
	})
}

// Request headers consumed by the HTTP middleware.
const (
	// HeaderUser carries the authenticated user ID (set by the
	// deployment's authentication layer, which is out of scope here).
	HeaderUser = "X-MSoD-User"
	// HeaderRoles carries the comma-separated activated roles.
	HeaderRoles = "X-MSoD-Roles"
	// HeaderContext carries the business context instance; when absent,
	// the middleware's ContextFunc derives one from the request.
	HeaderContext = "X-MSoD-Context"
)

// Middleware protects an http.Handler with PDP decisions: each request
// is mapped to (user, roles, operation, target, context) and only
// granted requests reach the wrapped handler.
type Middleware struct {
	// PDP takes the decisions. Required.
	PDP Decider
	// Target names the protected resource. Required.
	Target rbac.Object
	// OperationFunc maps a request to an operation; defaults to the
	// HTTP method.
	OperationFunc func(*http.Request) rbac.Operation
	// ContextFunc derives the business context instance when the
	// HeaderContext header is absent; defaults to the universal context.
	ContextFunc func(*http.Request) (bctx.Name, error)
	// OnDeny renders denials; defaults to 403 with the reason.
	OnDeny func(http.ResponseWriter, *http.Request, pdp.Decision)
}

// Wrap returns the protected handler.
func (mw *Middleware) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		user := r.Header.Get(HeaderUser)
		if user == "" {
			http.Error(w, "pep: missing "+HeaderUser+" header", http.StatusUnauthorized)
			return
		}
		var roles []rbac.RoleName
		if raw := r.Header.Get(HeaderRoles); raw != "" {
			for _, part := range strings.Split(raw, ",") {
				if part = strings.TrimSpace(part); part != "" {
					roles = append(roles, rbac.RoleName(part))
				}
			}
		}
		ctx, err := mw.requestContext(r)
		if err != nil {
			http.Error(w, "pep: bad business context: "+err.Error(), http.StatusBadRequest)
			return
		}
		op := rbac.Operation(r.Method)
		if mw.OperationFunc != nil {
			op = mw.OperationFunc(r)
		}
		dec, err := mw.PDP.Decide(pdp.Request{
			User: rbac.UserID(user), Roles: roles,
			Operation: op, Target: mw.Target, Context: ctx,
		})
		if err != nil {
			http.Error(w, "pep: decision error: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if !dec.Allowed {
			if mw.OnDeny != nil {
				mw.OnDeny(w, r, dec)
				return
			}
			http.Error(w, "forbidden: "+dec.Reason(), http.StatusForbidden)
			return
		}
		next.ServeHTTP(w, r)
	})
}

func (mw *Middleware) requestContext(r *http.Request) (bctx.Name, error) {
	if raw := r.Header.Get(HeaderContext); raw != "" {
		ctx, err := bctx.Parse(raw)
		if err != nil {
			return bctx.Name{}, err
		}
		if !ctx.IsInstance() {
			return bctx.Name{}, fmt.Errorf("context %q is not an instance", ctx)
		}
		return ctx, nil
	}
	if mw.ContextFunc != nil {
		return mw.ContextFunc(r)
	}
	return bctx.Universal, nil
}
