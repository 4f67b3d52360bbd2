// Package pdp implements the full PERMIS-style policy decision point of
// §4 and §5: it validates credentials through the CVS, performs the
// ordinary RBAC target-access check, then runs the MSoD enforcement
// algorithm against the retained ADI, and logs every decision to the
// secure audit trail. It also exposes the §4.3 management port, itself
// protected by the RBAC policy via the RetainedADIController role.
//
// The decision request mirrors the ISO 10181-3 framework of Figure 3:
// initiator ADI (credentials or pre-validated user/roles), access
// request ADI (operation, target), contextual information (environment),
// and the business context instance that MSoD adds as a distinguished
// parameter.
package pdp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/credential"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/policy"
	"msod/internal/rbac"
)

// Errors returned by configuration and requests.
var (
	// ErrConfig tags PDP construction failures.
	ErrConfig = errors.New("pdp: config")
	// ErrNoSubject is returned when a request carries neither credentials
	// nor a pre-validated user, when none of its credentials is valid, or
	// when its valid credentials name distinct users
	// (credential.ErrDistinctUsers, which it wraps too).
	ErrNoSubject = errors.New("pdp: request has no subject")
	// ErrMisrouted is returned, before anything is evaluated, when a
	// request's Routed subject is not the one it resolves to.
	ErrMisrouted = errors.New("pdp: request misrouted")
)

// Config assembles a PDP.
type Config struct {
	// Policy is the parsed policy envelope (roles, hierarchy, grants,
	// SSD/DSD, assignment trust, MSoD set). Required.
	Policy *policy.RBACPolicy
	// Store is the retained ADI; defaults to a fresh indexed store.
	Store adi.Recorder
	// Trail, when non-nil, receives an event per decision (§5.2).
	Trail *audit.Writer
	// TrailRecovers says the retained ADI is rebuilt from Trail at
	// start-up (msodd -recover trail without -adi), so a grant the trail
	// loses is lost history: a grant's entry is synced (AppendSynced)
	// before the grant is answered, and a grant whose entry fails to be
	// written or synced fails with adi.ErrWriteFailed instead of
	// counting in TrailErrors. Denials are appended as without it.
	TrailRecovers bool
	// Linker resolves multi-authority identities; optional.
	Linker *credential.Linker
	// Clock overrides the time source; defaults to time.Now.
	Clock func() time.Time
	// Observer, when non-nil, is called synchronously with an event for
	// every Decide outcome — grants and denials, with or without a
	// trail — feeding the live /v1/events stream. It must not block
	// (the inspect.Broker's Publish does not).
	Observer func(inspect.DecisionEvent)
	// HierarchyAwareMSoD expands activated roles through the policy's
	// role hierarchy before MMER matching, so a senior role conflicts
	// like the juniors it inherits (extension; see
	// core.WithRoleExpander).
	HierarchyAwareMSoD bool
}

// PDP is a ready decision point.
type PDP struct {
	policyID string
	model    *rbac.Model
	cvs      *credential.CVS
	engine   *core.Engine
	store    adi.Recorder
	trail    *audit.Writer
	// trailRecovers is Config.TrailRecovers.
	trailRecovers bool
	observer      func(inspect.DecisionEvent)
	clock         func() time.Time
	// commitMu makes a store change and its event publication atomic
	// with respect to other changes, so broker sequence order equals
	// store commit order: the stream tells the changes in the order they
	// were made, and a handoff export's sequence number marks exactly
	// the changes its dump holds. A decision takes it only when an
	// Observer is attached; Apply always does, and takes the engine lock
	// inside it.
	commitMu  sync.Mutex
	trailErrs atomic.Int64
}

// PolicyID returns the identifier of the loaded policy.
func (p *PDP) PolicyID() string { return p.policyID }

// TrailErrors reports how many audit-trail writes have failed since the
// PDP started.
func (p *PDP) TrailErrors() int64 { return p.trailErrs.Load() }

// New builds a PDP from the configuration: the RBAC model is compiled
// from the policy, the CVS trust map is taken from the role assignment
// policy, and the MSoD set (if present) is compiled into the engine.
func New(cfg Config) (*PDP, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrConfig)
	}
	model, err := cfg.Policy.BuildModel()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	store := cfg.Store
	if store == nil {
		store = adi.NewStore()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	var compiled []core.Policy
	if cfg.Policy.MSoD != nil {
		compiled, err = core.Compile(cfg.Policy.MSoD)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	engineOpts := []core.Option{core.WithClock(clock)}
	if cfg.HierarchyAwareMSoD {
		engineOpts = append(engineOpts, core.WithRoleExpander(model.Closure))
	}
	engine, err := core.NewEngine(store, compiled, engineOpts...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return &PDP{
		policyID:      cfg.Policy.ID,
		model:         model,
		cvs:           credential.NewCVS(cfg.Policy.TrustedRoles(), cfg.Linker),
		engine:        engine,
		store:         store,
		trail:         cfg.Trail,
		trailRecovers: cfg.TrailRecovers,
		observer:      cfg.Observer,
		clock:         clock,
	}, nil
}

// TrustAuthority registers a credential issuer's verification key with
// the PDP's CVS.
func (p *PDP) TrustAuthority(a *credential.Authority) error {
	return p.cvs.RegisterAuthority(a)
}

// Model exposes the underlying RBAC model (for session-based baseline
// experiments and examples).
func (p *PDP) Model() *rbac.Model { return p.model }

// Store exposes the retained ADI.
func (p *PDP) Store() adi.Recorder { return p.store }

// Engine exposes the MSoD engine.
func (p *PDP) Engine() *core.Engine { return p.engine }

// Request is a decision request.
type Request struct {
	// Credentials carry the initiator's roles when the request comes
	// from a distributed PEP; they are validated by the CVS. When empty,
	// User and Roles must be pre-validated by the caller.
	Credentials []credential.Credential
	// User is the initiator's stable ID (ignored when Credentials are
	// present — the CVS derives it; a shard sets Routed from it, so
	// there it must be the credentials' subject when both are given).
	User rbac.UserID
	// Roles are the activated roles (ignored when Credentials are
	// present), and RoleText the text the caller converted them from,
	// if any, as ContextText is Context's: a decision's events carry
	// RoleText, at no allocation, when it spells the subject's roles
	// role for role (so not a CVS subject's, unless they are the same).
	// The events keep it, so it must not change once the request is
	// decided.
	Roles    []rbac.RoleName
	RoleText []string
	// Routed, when non-empty, is the subject the request was routed on
	// (a shard's server.DecisionRequest.RoutingSubject): a
	// request that resolves to another subject fails with ErrMisrouted,
	// so a shard decides only for the users routed to it.
	Routed rbac.UserID
	// Operation and Target are the access request ADI.
	Operation rbac.Operation
	Target    rbac.Object
	// Context is the business context instance of the request, and
	// ContextText the text the caller parsed it from, if any: the events
	// of the decision carry Context's canonical text, which is
	// ContextText, at no allocation, when the caller spelled it so.
	Context     bctx.Name
	ContextText string
	// Environment is opaque contextual information, logged but not
	// evaluated (time-of-day style conditions are outside the paper's
	// scope).
	Environment map[string]string
}

// Phase says which stage produced the decision.
type Phase string

const (
	// PhaseCVS: credential validation failed to yield a usable subject.
	PhaseCVS Phase = "cvs"
	// PhaseRBAC: the ordinary role/permission check denied.
	PhaseRBAC Phase = "rbac"
	// PhaseMSoD: the MSoD algorithm denied.
	PhaseMSoD Phase = "msod"
	// PhaseGranted: all stages passed.
	PhaseGranted Phase = "granted"
)

// rbacDenial is the reason of every PhaseRBAC denial. It names no
// operation or target: those stay in their own fields of the event, the
// explain record and the slow-log line, and copied into the reason as
// well, a long escaped target would swell every answer to its request.
const rbacDenial = "no activated role grants the requested permission"

// Decision is the PDP's answer.
type Decision struct {
	// Allowed is the final effect.
	Allowed bool
	// Phase identifies the granting/denying stage.
	Phase Phase
	// User and Roles are the validated subject used for the decision.
	// Roles is the request's own slice when the subject came from
	// Request.Roles (the CVS's when from credentials): the decision does
	// not copy it, and the retained ADI keeps a copy of its own.
	User  rbac.UserID
	Roles []rbac.RoleName
	// MSoD is the engine's decision when MSoD ran: the object the
	// engine returns, kept, not copied. It is read-only: a plain grant
	// is shared with every other of its counts (core.Decision).
	MSoD *core.Decision
	// reason is the denial's text when it is written already: the RBAC
	// constant, or an MSoD denial rendered for the stream event.
	reason string
}

// Reason explains a denial in words ("" for a grant): the RBAC
// constant, or the MSoD denial's text (core.Denial.Error). An MSoD
// denial is rendered here, on each call, unless the PDP rendered it for
// its observer already; a PDP with no observer renders nothing that is
// not asked for.
func (d Decision) Reason() string {
	if d.reason == "" && d.MSoD != nil && d.MSoD.Denial != nil {
		return d.MSoD.Denial.Error()
	}
	return d.reason
}

// Decide evaluates one access request: CVS → RBAC → MSoD → audit.
func (p *PDP) Decide(req Request) (Decision, error) {
	return p.DecideCtx(context.Background(), req)
}

// DecideCtx is Decide carrying a context. When the context holds an
// obsv.Trace, each pipeline stage records a span (obsv.StageCVS,
// StageRBAC, StageMSoD, StageAudit; the engine adds its own inside the
// msod span when the context answers core's Tracer key too), and the
// trace ID is stamped into the audit-trail event so the durable record
// correlates with the gateway's log line.
func (p *PDP) DecideCtx(ctx context.Context, req Request) (Decision, error) {
	return p.run(ctx, req, true)
}

// run is the one CVS → RBAC → MSoD pipeline behind DecideCtx and
// AdviseCtx. commit selects the engine call — EvaluateCtx, which
// records a grant, or PeekCtx, which does not — and whether the outcome
// is published to the observer and appended to the trail.
func (p *PDP) run(ctx context.Context, req Request, commit bool) (Decision, error) {
	endCVS := obsv.StartSpan(ctx, obsv.StageCVS)
	user, roles, err := p.subject(req)
	endCVS.End()
	if err != nil {
		return Decision{}, err
	}
	dec := Decision{User: user, Roles: roles}
	msodReq := core.Request{
		User:      user,
		Roles:     roles,
		Operation: req.Operation,
		Target:    req.Target,
		Context:   req.Context,
	}
	observed := commit && p.observer != nil
	trailed := commit && p.trail != nil

	perm := rbac.Permission{Operation: req.Operation, Object: req.Target}
	endRBAC := obsv.StartSpan(ctx, obsv.StageRBAC)
	permitted := p.model.RolesPermit(roles, perm)
	endRBAC.End()
	if !permitted {
		dec.Phase = PhaseRBAC
		dec.reason = rbacDenial
		// RBAC denials never touch the store, so they need no commit
		// ordering: publish and append directly.
		if observed || trailed {
			ev := p.event(ctx, msodReq, req, dec)
			if observed {
				p.publish(ev, dec)
			}
			if trailed {
				_ = p.appendTrail(ctx, ev, false) // a denial: only counted
			}
		}
		return dec, nil
	}

	endMSoD := obsv.StartSpan(ctx, obsv.StageMSoD)
	// The commit lock spans evaluation (which may commit a record) and
	// event publication — see the commitMu field comment. The WAL sync
	// a durable grant waits on (waitSynced) and the audit append (with
	// the trail's sync of a grant, under TrailRecovers) stay outside:
	// durable I/O under the lock would gate every decision's latency on
	// disk, and the trail has its own ordering.
	if observed {
		p.commitMu.Lock()
	}
	if commit {
		dec.MSoD, err = p.engine.EvaluateCtx(ctx, msodReq)
	} else {
		dec.MSoD, err = p.engine.PeekCtx(ctx, msodReq)
	}
	if err != nil {
		if observed {
			p.commitMu.Unlock()
		}
		endMSoD.End()
		return Decision{}, err
	}
	if dec.MSoD.Effect == core.Deny {
		dec.Phase = PhaseMSoD
		if observed {
			// Rendered once, for the stream event; Reason returns it.
			dec.reason = dec.MSoD.Denial.Error()
		}
	} else {
		dec.Allowed = true
		dec.Phase = PhaseGranted
	}
	var ev audit.Event
	if observed || trailed {
		ev = p.event(ctx, msodReq, req, dec)
	}
	if observed {
		p.publish(ev, dec)
		p.commitMu.Unlock()
	}
	endMSoD.End()
	if commit {
		if err := waitSynced(ctx); err != nil {
			return Decision{}, err
		}
	}
	if trailed {
		if err := p.appendTrail(ctx, ev, dec.Allowed); err != nil {
			return Decision{}, err
		}
	}
	return dec, nil
}

// waitSynced returns once a WAL sync covers every entry the decision
// wrote under the adi.SyncWaiter its context carries (adi.SyncKey), in
// an adi.SpanSync span; without a waiter, or with nothing written under
// it, at once. The decision holds no lock here, so the flush delays its
// own answer and no other decision. A failed sync fails the decision:
// it is not trailed or answered, though its event is published already
// and its records stay in memory — deny-safe, since nothing
// acknowledges them.
func waitSynced(ctx context.Context) error {
	w, _ := ctx.Value(adi.SyncKey).(*adi.SyncWaiter)
	if !w.Pending() {
		return nil
	}
	endSync := obsv.StartSpan(ctx, adi.SpanSync)
	err := w.Wait()
	endSync.End()
	return err
}

// WithCommitLock runs fn while holding the commit lock, so that no
// change sits between its store commit and its event publication: the
// handoff export captures a store dump and a broker sequence number
// consistent with each other. Keep fn short — decisions block
// for its duration. Without an Observer there is no stream to be
// consistent with, and decisions skip the lock.
func (p *PDP) WithCommitLock(fn func()) {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	fn()
}

// Advise answers "would Decide grant this?" without any side effects:
// the retained ADI is not modified and nothing is written to the audit
// trail. It exists for UX and planning queries; the answer is advisory
// (see core.Engine.Peek for the TOCTOU caveat).
func (p *PDP) Advise(req Request) (Decision, error) {
	return p.AdviseCtx(context.Background(), req)
}

// AdviseCtx is Advise carrying a context (see DecideCtx); advisory
// traces record cvs/rbac/msod spans but never audit or store — the
// path has no side effects.
func (p *PDP) AdviseCtx(ctx context.Context, req Request) (Decision, error) {
	return p.run(ctx, req, false)
}

// subject resolves the request's initiator: CVS-validated credentials
// take precedence; otherwise the pre-validated user/roles are used as
// they are. A subject other than req.Routed is refused.
func (p *PDP) subject(req Request) (rbac.UserID, []rbac.RoleName, error) {
	user, roles := req.User, req.Roles
	if len(req.Credentials) > 0 {
		v, err := p.cvs.Validate(req.Credentials, p.clock())
		if errors.Is(err, credential.ErrDistinctUsers) {
			return "", nil, fmt.Errorf("%w: %w", ErrNoSubject, err)
		}
		if err != nil {
			return "", nil, fmt.Errorf("pdp: credential validation: %w", err)
		}
		if v.User == "" {
			return "", nil, fmt.Errorf("%w: no valid credentials", ErrNoSubject)
		}
		user, roles = v.User, v.Roles
	}
	if user == "" {
		return "", nil, ErrNoSubject
	}
	if req.Routed != "" && req.Routed != user {
		return "", nil, fmt.Errorf("%w: routed on %q, resolves to %q; send it under that user",
			ErrMisrouted, obsv.Prefix(string(req.Routed)), obsv.Prefix(string(user)))
	}
	return user, roles, nil
}

// event builds the audit record for the decision of msodReq, stamping
// the context's trace ID so the durable record and the live event
// stream correlate; it takes req's ContextText and RoleText where they
// spell msodReq's context and roles (audit.NewEvent). It copies the
// engine's read-only decision before it sets the effect.
func (p *PDP) event(ctx context.Context, msodReq core.Request, req Request, dec Decision) audit.Event {
	var cd core.Decision
	if dec.MSoD != nil {
		cd = *dec.MSoD
	}
	if !dec.Allowed {
		cd.Effect = core.Deny
	}
	ev := audit.NewEvent(msodReq, req.ContextText, req.RoleText, cd, p.clock())
	ev.TraceID = string(obsv.TraceIDFrom(ctx))
	return ev
}

// publish converts the audit record to a stream event — with the
// decision's retained-ADI effects echoed — and hands it to the
// observer. For decisions that can commit, the
// caller holds commitMu so sequence numbers are assigned in commit
// order.
func (p *PDP) publish(ev audit.Event, dec Decision) {
	out := inspect.DecisionEvent{
		Time:            ev.Time,
		TraceID:         ev.TraceID,
		User:            ev.User,
		Roles:           ev.Roles,
		Operation:       ev.Operation,
		Target:          ev.Target,
		Context:         ev.Context,
		Effect:          ev.Effect,
		MatchedPolicies: ev.MatchedPolicies,
	}
	if dec.MSoD != nil {
		out.Recorded = int(dec.MSoD.Recorded)
		out.Purged = int(dec.MSoD.Purged)
	}
	if !dec.Allowed {
		out.Stage = string(dec.Phase)
		out.Reason = dec.Reason()
		if dec.MSoD != nil && dec.MSoD.Denial != nil {
			// Surface the refusing constraint's identity and k-of-m state
			// inline, mirroring the explain record's governing rule.
			d := dec.MSoD.Denial
			out.Rule = d.Rule
			out.K = d.Held
			out.M = d.Cardinality
		}
	}
	p.observer(out)
}

// appendTrail writes the decision to the audit trail (the caller has
// checked there is one). A trail write failure does not flip an access
// decision; the PDP counts it in TrailErrors instead (the paper does
// not specify) — except for a grant under TrailRecovers, whose entry is
// the only durable copy of its records: its entry is synced, and a
// failure fails the grant with adi.ErrWriteFailed, which latches a
// shard's read-only mode as a failed WAL write does.
func (p *PDP) appendTrail(ctx context.Context, ev audit.Event, granted bool) error {
	endAudit := obsv.StartSpan(ctx, obsv.StageAudit)
	defer endAudit.End()
	if p.trailRecovers && granted {
		if _, err := p.trail.AppendSynced(ctx, ev); err != nil {
			return fmt.Errorf("%w: audit trail: %w", adi.ErrWriteFailed, err)
		}
		return nil
	}
	if _, err := p.trail.AppendCtx(ctx, ev); err != nil {
		p.trailErrs.Add(1)
	}
	return nil
}
