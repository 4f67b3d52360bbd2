package pdp

import (
	"errors"
	"fmt"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/credential"
	"msod/internal/inspect"
	"msod/internal/rbac"
)

// The §4.3 management port treats the retained ADI as a target resource
// protected by the PDP's own RBAC policy: a policy grants the
// RetainedADIController role the management operations on the
// RetainedADITarget object, and every management request goes through
// the ordinary Decide path before it touches the store.
const (
	// RetainedADITarget is the object name of the retained ADI resource.
	RetainedADITarget = rbac.Object("msod:retainedADI")
	// RetainedADIController is the conventional role name for ADI
	// administrators (the policy decides what it can actually do).
	RetainedADIController = rbac.RoleName("RetainedADIController")

	// OpPurgeContext removes the records of a context subtree.
	OpPurgeContext = rbac.Operation("purgeContext")
	// OpPurgeUser removes one user's records.
	OpPurgeUser = rbac.Operation("purgeUser")
	// OpPurgeBefore removes records older than a cutoff.
	OpPurgeBefore = rbac.Operation("purgeBefore")
	// OpStats reads store statistics.
	OpStats = rbac.Operation("stats")
)

// ErrManagement tags management-port failures.
var ErrManagement = errors.New("pdp: management")

// ManagementRequest is a §4.3 administrative operation on the retained
// ADI. Subject fields work as in Request (credentials or pre-validated).
type ManagementRequest struct {
	// Credentials / User / Roles identify the administrator.
	Credentials []credential.Credential
	User        rbac.UserID
	Roles       []rbac.RoleName
	// Operation is one of the Op* constants.
	Operation rbac.Operation
	// ContextPattern is the purge scope for OpPurgeContext (may contain
	// wildcards).
	ContextPattern string
	// TargetUser is the subject of OpPurgeUser.
	TargetUser rbac.UserID
	// Before is the cutoff for OpPurgeBefore.
	Before time.Time
}

// ManagementResult reports the outcome of a management operation.
type ManagementResult struct {
	// Removed is the number of records deleted by a purge.
	Removed int
	// Records is the store size after the operation.
	Records int
}

// Manage authorises and executes a management operation. The
// authorisation is an ordinary RBAC decision for (Operation,
// RetainedADITarget) — MSoD constraints do not apply to the management
// plane (the paper scopes them to business contexts).
func (p *PDP) Manage(req ManagementRequest) (ManagementResult, error) {
	user, roles, err := p.subject(Request{Credentials: req.Credentials, User: req.User, Roles: req.Roles})
	if err != nil {
		return ManagementResult{}, err
	}
	perm := rbac.Permission{Operation: req.Operation, Object: RetainedADITarget}
	if !p.model.RolesPermit(roles, perm) {
		return ManagementResult{}, fmt.Errorf("%w: user %q roles %v not permitted %s", ErrManagement, user, roles, perm)
	}

	// Purges mutate the retained ADI outside the decision path, so each
	// one publishes an OutcomePurge event under the commit lock — the
	// mutation and its event are atomic with respect to decisions, and
	// a mirror replaying the stream applies the same purge at the same
	// point (without these events it would silently diverge).
	switch req.Operation {
	case OpPurgeContext:
		pattern, err := bctx.Parse(req.ContextPattern)
		if err != nil {
			return ManagementResult{}, fmt.Errorf("%w: %v", ErrManagement, err)
		}
		return p.purge(inspect.DecisionEvent{
			Operation: string(OpPurgeContext),
			Target:    string(RetainedADITarget),
			Context:   pattern.String(),
			Reason:    fmt.Sprintf("management purge by %q", user),
		}, func() (int, bool, error) {
			n, err := p.store.PurgeContext(pattern)
			return n, true, err
		})

	case OpPurgeUser:
		if req.TargetUser == "" {
			return ManagementResult{}, fmt.Errorf("%w: purgeUser needs a target user", ErrManagement)
		}
		return p.purge(inspect.DecisionEvent{
			Operation: string(OpPurgeUser),
			Target:    string(RetainedADITarget),
			User:      string(req.TargetUser),
			Reason:    fmt.Sprintf("management purge by %q", user),
		}, func() (int, bool, error) { return adi.PurgeUserFrom(p.store, req.TargetUser) })

	case OpPurgeBefore:
		if req.Before.IsZero() {
			return ManagementResult{}, fmt.Errorf("%w: purgeBefore needs a cutoff time", ErrManagement)
		}
		before := req.Before
		return p.purge(inspect.DecisionEvent{
			Operation: string(OpPurgeBefore),
			Target:    string(RetainedADITarget),
			Before:    &before,
			Reason:    fmt.Sprintf("management purge by %q", user),
		}, func() (int, bool, error) { return adi.PurgeBeforeFrom(p.store, before) })

	case OpStats:
		return ManagementResult{Records: p.store.Len()}, nil

	default:
		return ManagementResult{}, fmt.Errorf("%w: unknown operation %q", ErrManagement, req.Operation)
	}
}

// CloseContext is §4.2 step 7 for a last step that was granted on
// another node of a user-sharded deployment (core.Decision.Closed): this
// node's slice of the bound context instance is purged through the
// engine (core.Engine.Close), with no authorisation of its own — the
// caller vouches that the last step was granted — and published as the
// OutcomePurge event an administrative purgeContext of the same
// instance publishes, so a mirror replaying the stream closes it too.
// by names the granted last step in the event.
func (p *PDP) CloseContext(bound bctx.Name, by string) (int, error) {
	res, err := p.purge(inspect.DecisionEvent{
		Operation: string(OpPurgeContext),
		Target:    string(RetainedADITarget),
		Context:   bound.String(),
		Reason:    "closed by last step " + by + " granted on another shard",
	}, func() (int, bool, error) {
		n, err := p.engine.Close(bound)
		return n, true, err
	})
	return res.Removed, err
}

// Activate is the other half of a user-sharded deployment's context
// lifecycle: the bound context instances have started on another node,
// so this node activates them (adi.EnsureActive) — with no authorisation
// of its own, as for CloseContext — and publishes each one it activated
// as an OutcomeActivate event, both under the commit lock, so a mirror
// replaying the stream activates it too. Instances already active here
// are skipped. Returns how many it activated.
func (p *PDP) Activate(bounds ...bctx.Name) (int, error) {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	return p.activateLocked("started on another shard", bounds)
}

// activateLocked is Activate for a caller holding commitMu; reason goes
// into the events.
func (p *PDP) activateLocked(reason string, bounds []bctx.Name) (int, error) {
	now := p.clock()
	added := 0
	for _, bound := range bounds {
		n, err := adi.EnsureActive(p.store, now, bound)
		if err != nil {
			return added, err
		}
		if added += n; n > 0 && p.observer != nil {
			p.observer(inspect.DecisionEvent{
				Effect:  inspect.OutcomeActivate,
				Time:    now,
				Target:  string(RetainedADITarget),
				Context: bound.String(),
				Reason:  reason,
			})
		}
	}
	return added, nil
}

// Release is the donor's half of a resharding handoff. The users'
// history has moved to another shard, so it is purged here — each user
// published as the purgeUser event a management purge publishes — and
// every instance they held records of that is left with none here is
// activated, as Activate does, all under the commit lock: the instance
// is still running on the shard the history moved to, and without the
// activation this shard would grant its own users' steps in it
// unrecorded. It returns the records removed, and false, with nothing
// released, when the store has no per-user purge or cannot list what
// the users held.
func (p *PDP) Release(users []rbac.UserID) (int, bool, error) {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	browser, ok := adi.BrowserFor(p.store)
	if !ok {
		return 0, false, nil
	}
	removed := 0
	var held []bctx.Name
	for _, u := range users {
		for _, rec := range browser.UserRecords(u, bctx.Universal) {
			held = append(held, rec.Context)
		}
		n, ok, err := adi.PurgeUserFrom(p.store, u)
		if !ok || err != nil {
			return removed, ok, err
		}
		removed += n
		p.publishPurge(inspect.DecisionEvent{
			Operation: string(OpPurgeUser),
			Target:    string(RetainedADITarget),
			User:      string(u),
			Purged:    n,
			Reason:    "released by a resharding handoff",
		})
	}
	_, err := p.activateLocked("still running where a resharding handoff moved its history", held)
	return removed, true, err
}

// purge runs a management purge — the store's own PurgeContext,
// or one that reaches it through adi's signature bridges (PurgeUserFrom,
// PurgeBeforeFrom; !ok: the store has no such surface) — and, when it
// succeeded, publishes ev with the removed count, both under the commit
// lock.
func (p *PDP) purge(ev inspect.DecisionEvent, purge func() (n int, ok bool, err error)) (ManagementResult, error) {
	p.commitMu.Lock()
	n, ok, err := purge()
	if ok && err == nil {
		ev.Purged = n
		p.publishPurge(ev)
	}
	p.commitMu.Unlock()
	if !ok {
		return ManagementResult{}, fmt.Errorf("%w: store does not support %s", ErrManagement, ev.Operation)
	}
	if err != nil {
		// A durable purge that failed mid-write surfaces the store's
		// error chain (adi.ErrWriteFailed latches the server's
		// degraded read-only mode).
		return ManagementResult{}, fmt.Errorf("%w: %w", ErrManagement, err)
	}
	return ManagementResult{Removed: n, Records: p.store.Len()}, nil
}

// publishPurge emits a management purge to the event stream; no-op
// without an observer. The caller holds commitMu.
func (p *PDP) publishPurge(ev inspect.DecisionEvent) {
	if p.observer == nil {
		return
	}
	ev.Effect = inspect.OutcomePurge
	ev.Time = p.clock()
	p.observer(ev)
}
