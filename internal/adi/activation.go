package adi

import (
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

// Context activation. §4.2 step 3 asks "has this bound context
// instance started?" — per-store state. When the user population is
// partitioned across stores (the cluster gateway shards by user), the
// node holding the first-stepper activates the instance locally, but
// every OTHER node would still answer "not started" and, for a
// FirstStep-gated policy, skip recording its own users' operations in
// the running instance — under-counted history, the one failure mode
// MSoD must never have. EnsureActive closes the gap: it activates the
// instance in the store's instance table, so ContextActive turns true
// without a record of any user. A context purge (the close) clears the
// activation, an age purge clears it once it is older than the cutoff,
// and a user purge never touches it.
//
// An activation enters a store through Recorder.Append, encoded as a
// record of a reserved (user, operation, target) triple: that record is
// what the WAL, the compacted snapshot and a full replica snapshot hold,
// and every store decodes it into its instance table on the way in,
// never into a user's history. Only this package knows the triple.
//
// Activation is deny-safe by construction: it counts toward no user's
// k-of-m; a spurious one can only cause over-recording (over-counting
// denies, never grants), and a missing one is repaired idempotently by
// EnsureActive.
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

// EnsureActive idempotently activates the bound contexts on the store:
// an activation is appended only where ContextActive is still false, so
// replays and overlapping fan-outs append nothing. Returns how many were
// appended. Callers serialise against decisions (the PDP commit lock)
// themselves.
func EnsureActive(store Recorder, now time.Time, bounds ...bctx.Name) (int, error) {
	added := 0
	for _, bound := range bounds {
		active, err := store.ContextActive(bound)
		if err != nil {
			return added, err
		}
		if active {
			continue
		}
		if err := store.Append(newActivationRecord(bound, now)); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// Activations returns the store's activations in the encoding Append
// takes, for a full replica snapshot: a mirror that appends them
// alongside the records holds the same activity. It is nil for a store
// that cannot list them.
func Activations(store Recorder) []Record {
	switch s := store.(type) {
	case *Store:
		return s.activations()
	case *DurableStore:
		return s.mem.activations()
	}
	return nil
}
