package adi

import (
	"errors"
	"fmt"
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

// Op is one change to a retained ADI that is not a decision's own
// commit (§4.2 steps 5.iv and 7): a §4.3 management purge, a cluster's
// open or close of an instance whose first or last step was granted on
// another shard, a resharding handoff's release and import. Apply is
// the one place that maps an Op onto a store.
type Op struct {
	Kind OpKind
	// Records are what an OpRecord appends.
	Records []Record
	// Bound is the instance an OpActivate activates and the pattern an
	// OpClose purges.
	Bound bctx.Name
	// User is whose records an OpPurgeUser or OpRelease removes.
	User rbac.UserID
	// Time is when an OpActivate or an OpRelease activates, and an
	// OpPurgeBefore's cutoff.
	Time time.Time
}

// OpKind says what an Op does.
type OpKind uint8

const (
	OpRecord      OpKind = iota + 1 // append Records (a handoff import's copy)
	OpActivate                      // activate Bound at Time unless it is open already
	OpClose                         // purge Bound's records and activations (step 7, §4.3)
	OpPurgeUser                     // remove User's records (§4.3); activations stay
	OpPurgeBefore                   // remove records and activations older than Time (§4.3)
	// OpRelease removes User's records and activates, at Time, each
	// instance they were the last trace of: the user's history moved to
	// another shard, where those instances are still running.
	OpRelease
)

// ErrUnsupported reports an Op the store has no surface for: only
// Store and DurableStore take the ones Recorder cannot express. Nothing was changed. Test with errors.Is.
var ErrUnsupported = errors.New("adi: operation unsupported by the store")

// Effect is what applying one Op changed: the records appended and
// deleted, and the instances activated — an OpActivate's Bound when it
// was not open, the ones an OpRelease kept running (listed in Kept).
type Effect struct {
	Added, Removed, Activated int
	Kept                      []bctx.Name
}

// Apply maps one op onto the store. On an error nothing is changed,
// except by an OpRelease, whose Effect then says what its purge and the
// activations before the failing one did. Callers serialise Apply
// against decisions themselves: in a PDP the one caller is
// core.Engine.Apply, under the engine lock.
func Apply(store Recorder, op Op) (Effect, error) {
	switch op.Kind {
	case OpRecord:
		if err := store.Append(op.Records...); err != nil {
			return Effect{}, err
		}
		return Effect{Added: len(op.Records)}, nil
	case OpActivate:
		active, err := store.ContextActive(op.Bound)
		if err != nil || active {
			return Effect{}, err
		}
		if err := store.Append(newActivationRecord(op.Bound, op.Time)); err != nil {
			return Effect{}, err
		}
		return Effect{Activated: 1}, nil
	case OpClose:
		n, err := store.PurgeContext(op.Bound)
		return Effect{Removed: n}, err
	case OpPurgeUser, OpPurgeBefore:
		n, err := purge(store, op)
		return Effect{Removed: n}, err
	case OpRelease:
		return release(store, op)
	}
	return Effect{}, fmt.Errorf("adi: unknown op kind %d", op.Kind)
}

// purge runs an OpPurgeUser or OpPurgeBefore.
func purge(store Recorder, op Op) (int, error) {
	switch s := store.(type) {
	case *DurableStore:
		if op.Kind == OpPurgeUser {
			return s.PurgeUser(op.User)
		}
		return s.PurgeBefore(op.Time)
	case *Store:
		if op.Kind == OpPurgeUser {
			return s.PurgeUser(op.User), nil
		}
		return s.PurgeBefore(op.Time), nil
	}
	return 0, fmt.Errorf("%w: %T has no user or age purge", ErrUnsupported, store)
}

// release is OpPurgeUser followed by an OpActivate of every instance
// the user held records in: those it left empty start running on their
// own, the others are open already and stay as they are.
func release(store Recorder, op Op) (Effect, error) {
	held := store.UserRecords(op.User, bctx.Universal)
	n, err := purge(store, Op{Kind: OpPurgeUser, User: op.User})
	eff := Effect{Removed: n}
	if err != nil {
		return eff, err
	}
	for _, rec := range held {
		e, err := Apply(store, Op{Kind: OpActivate, Bound: rec.Context, Time: op.Time})
		if err != nil {
			return eff, err
		}
		if e.Activated > 0 {
			eff.Activated++
			eff.Kept = append(eff.Kept, rec.Context)
		}
	}
	return eff, nil
}
