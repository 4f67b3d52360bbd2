package adi

import (
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

// Context activation. §4.2 step 3 asks "has this bound context
// instance started?" — per-store state. When the user population is
// partitioned across stores, the node holding the first-stepper starts
// the instance, and every other node would still answer "not started"
// and skip recording its own users' operations in it — a false grant
// waiting to happen. OpActivate activates the instance in the store's
// instance table, so ContextActive turns true without a record of any
// user. A context purge clears the activation, an age purge once it is
// older than the cutoff, a user purge never.
//
// An activation enters a store through Recorder.Append, encoded as a
// record of a reserved (user, operation, target) triple: that record is
// what the WAL and the compacted snapshot hold,
// and every store decodes it into its instance table on the way in,
// never into a user's history. Only this package knows the triple. It
// is deny-safe: it counts toward no user's k-of-m, so a spurious one
// can only cause over-recording.
const (
	// The "msod:" prefix cannot collide with subjects resolved from
	// credentials in any shipped CVS, and no TargetAccessPolicy grants
	// the pair, so a decision never records the whole triple.
	activationUser   rbac.UserID    = "msod:ctx-activation"
	activationOp     rbac.Operation = "msod:activate"
	activationTarget rbac.Object    = "msod:ctx"
)

// newActivationRecord encodes the activation of one bound context.
func newActivationRecord(bound bctx.Name, at time.Time) Record {
	return Record{
		User:      activationUser,
		Operation: activationOp,
		Target:    activationTarget,
		Context:   bound,
		Time:      at,
	}
}

// isActivation reports whether the record encodes an activation.
func (r Record) isActivation() bool {
	return r.User == activationUser && r.Operation == activationOp && r.Target == activationTarget
}
