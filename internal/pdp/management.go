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

	var op adi.Op
	switch req.Operation {
	case OpPurgeContext:
		pattern, err := bctx.Parse(req.ContextPattern)
		if err != nil {
			return ManagementResult{}, fmt.Errorf("%w: %v", ErrManagement, err)
		}
		op = adi.Op{Kind: adi.OpClose, Bound: pattern}
	case OpPurgeUser:
		if req.TargetUser == "" {
			return ManagementResult{}, fmt.Errorf("%w: purgeUser needs a target user", ErrManagement)
		}
		op = adi.Op{Kind: adi.OpPurgeUser, User: req.TargetUser}
	case OpPurgeBefore:
		if req.Before.IsZero() {
			return ManagementResult{}, fmt.Errorf("%w: purgeBefore needs a cutoff time", ErrManagement)
		}
		op = adi.Op{Kind: adi.OpPurgeBefore, Time: req.Before}
	case OpStats:
		return ManagementResult{Records: p.store.Len()}, nil
	default:
		return ManagementResult{}, fmt.Errorf("%w: unknown operation %q", ErrManagement, req.Operation)
	}
	eff, err := p.Apply(fmt.Sprintf("management purge by %q", user), op)
	if err != nil {
		// adi.ErrUnsupported for a store without the purge; a durable
		// purge that failed mid-write keeps adi.ErrWriteFailed in the
		// chain, which latches the server's degraded read-only mode.
		return ManagementResult{}, fmt.Errorf("%w: %w", ErrManagement, err)
	}
	return ManagementResult{Removed: eff.Removed, Records: p.store.Len()}, nil
}

// Apply is the PDP's one entry for a change to the retained ADI that is
// not a decision's own commit (adi.Op), with no authorisation of its
// own: the caller (Manage, a cluster shard's server) vouches for it. The
// ops are applied in order through core.Engine.Apply, under the engine
// lock, while the commit lock is held, and each applied op is published
// (opEvent, with reason) so the stream orders it among the decisions as
// the store did. It returns the effects summed; on an error the ops
// before the failing one stay applied and published.
func (p *PDP) Apply(reason string, ops ...adi.Op) (adi.Effect, error) {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	var total adi.Effect
	err := p.engine.Apply(ops, func(op adi.Op, eff adi.Effect) {
		total.Added += eff.Added
		total.Removed += eff.Removed
		total.Activated += eff.Activated
		if p.observer == nil {
			return
		}
		now := p.clock()
		switch {
		case op.Kind == adi.OpRelease:
			// Published as what it is made of: a user purge, then each
			// instance it leaves running, activated again.
			p.observer(opEvent(adi.Op{Kind: adi.OpPurgeUser, User: op.User}, eff, reason, now))
			for _, bound := range eff.Kept {
				p.observer(opEvent(adi.Op{Kind: adi.OpActivate, Bound: bound, Time: op.Time}, adi.Effect{}, reason, now))
			}
		case op.Kind != adi.OpActivate || eff.Activated > 0:
			p.observer(opEvent(op, eff, reason, now))
		}
	})
	return total, err
}

// opEvent renders an applied op as the event it stands for: an
// activation as OutcomeActivate at the time it took effect, a close or
// a §4.3 purge as OutcomePurge with the records it removed, and a
// handoff import's records as OutcomeImport, which carries their
// number only.
func opEvent(op adi.Op, eff adi.Effect, reason string, now time.Time) inspect.DecisionEvent {
	ev := inspect.DecisionEvent{Effect: inspect.OutcomePurge, Time: now, Target: string(RetainedADITarget), Reason: reason, Purged: eff.Removed}
	switch op.Kind {
	case adi.OpActivate:
		ev.Effect, ev.Time, ev.Context = inspect.OutcomeActivate, op.Time, op.Bound.String()
	case adi.OpClose:
		ev.Operation, ev.Context = string(OpPurgeContext), op.Bound.String()
	case adi.OpPurgeUser:
		ev.Operation, ev.User = string(OpPurgeUser), string(op.User)
	case adi.OpPurgeBefore:
		before := op.Time // a copy, so that op stays on its caller's stack
		ev.Operation, ev.Before = string(OpPurgeBefore), &before
	case adi.OpRecord:
		ev.Effect, ev.Recorded = inspect.OutcomeImport, eff.Added
	}
	return ev
}
