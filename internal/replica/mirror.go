// Package replica implements the advisory read-replica tier: a
// follower subscribes to an owning shard's decision event stream,
// applies the events to a read-only retained-ADI mirror, and serves
// the advisory surface (near-limit probes, /v1/state introspection)
// under an explicit bounded-staleness contract. Authoritative
// decisions stay single-writer on the owner; every replica answer is
// stamped with the applied broker sequence number and lag, and a
// replica that cannot prove freshness refuses — failing toward "ask
// the owner" — rather than answering stale.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"msod/internal/adi"
	"msod/internal/core"
	"msod/internal/inspect"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/server"
)

// ErrDiverged reports that applying an event produced different
// retained-ADI effects than the owner recorded for it. The mirror's
// state can no longer be trusted and must be rebuilt from a snapshot;
// the follower does exactly that. Test with errors.Is.
var ErrDiverged = errors.New("replica: mirror diverged from owner")

// ErrResync reports an event whose records the stream does not carry (a
// handoff import's): the mirror catches up from a snapshot taken after
// it, as after a stream gap; it has not diverged. Test with errors.Is.
var ErrResync = errors.New("replica: event needs a snapshot to follow")

// Mirror is a local retained-ADI copy maintained by deterministic
// replay: grant events are re-evaluated through an engine compiled
// from the same policy, with the clock pinned to each event's
// timestamp, so the mirror commits exactly the records the owner did —
// and proves it by comparing its recorded/purged counts against the
// owner's echoes in every event. Denials never mutate and are skipped;
// every other change arrives as the event of an adi.Op (pdp.PDP.Apply),
// which the mirror applies through its own PDP and checks the same way.
//
// The mirror is the advisory decision surface too: Advise answers
// "would the owner grant this?" from local state with zero side
// effects.
type Mirror struct {
	pdp   *pdp.PDP
	store *adi.Store

	// mu serialises Apply and Reset; reads (Advise, browsing) go
	// through the store's own locks and may interleave.
	mu sync.Mutex
	// applyTime pins the engine clock to the event being applied, so
	// replayed records carry the owner's timestamps, not replay time.
	applyTime  atomic.Pointer[time.Time]
	appliedSeq atomic.Uint64
}

// NewMirror compiles the policy into a fresh mirror. The policy (and
// hierarchyAware, mirroring the owner's -hierarchy-msod setting) must
// match the owner's: same events through a different policy is a
// different history.
func NewMirror(pol *policy.RBACPolicy, hierarchyAware bool) (*Mirror, error) {
	m := &Mirror{store: adi.NewStore()}
	p, err := pdp.New(pdp.Config{
		Policy:             pol,
		Store:              m.store,
		Clock:              m.clock,
		HierarchyAwareMSoD: hierarchyAware,
	})
	if err != nil {
		return nil, err
	}
	m.pdp = p
	return m, nil
}

// clock is the mirror PDP's time source: the event timestamp during
// replay, wall time otherwise (advisory evaluations never commit, so
// wall time is only cosmetic there).
func (m *Mirror) clock() time.Time {
	if t := m.applyTime.Load(); t != nil {
		return *t
	}
	return time.Now()
}

// PolicyID returns the compiled policy's identifier.
func (m *Mirror) PolicyID() string { return m.pdp.PolicyID() }

// AppliedSeq returns the owner sequence number the mirror has applied
// through.
func (m *Mirror) AppliedSeq() uint64 { return m.appliedSeq.Load() }

// Records returns the mirror's retained record count.
func (m *Mirror) Records() int { return m.store.Len() }

// Browser exposes the mirror's read-only browse surface for state
// introspection.
func (m *Mirror) Browser() adi.Browser { return m.store }

// Engine exposes the mirror's MSoD engine (for the inspector's
// near-limit computation).
func (m *Mirror) Engine() *core.Engine { return m.pdp.Engine() }

// Advise answers a side-effect-free advisory decision from mirror
// state. Freshness is the caller's concern (see Follower.Advise).
func (m *Mirror) Advise(req pdp.Request) (pdp.Decision, error) {
	return m.pdp.Advise(req)
}

// Apply replays one owner event into the mirror. Events must arrive in
// sequence order with no holes (the resumable stream guarantees it).
// An ErrDiverged return means the mirror refused the event because its
// effects did not match the owner's echoes; the mirror must be Reset
// from a fresh snapshot.
func (m *Mirror) Apply(ev inspect.DecisionEvent) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ev.Seq != 0 && ev.Seq <= m.appliedSeq.Load() {
		// Already applied (an overlapping replay); skipping is safe
		// because application is deterministic.
		return nil
	}
	var err error
	switch ev.Effect {
	case inspect.OutcomeDeny:
		// Denials never touch the retained ADI.
	case inspect.OutcomeGrant:
		err = m.applyGrant(ev)
	case inspect.OutcomeImport:
		err = fmt.Errorf("%w: seq %d imported %d records the stream does not carry", ErrResync, ev.Seq, ev.Recorded)
	default:
		err = m.applyOp(ev)
	}
	if err != nil {
		return err
	}
	if ev.Seq != 0 {
		m.appliedSeq.Store(ev.Seq)
	}
	return nil
}

func (m *Mirror) applyGrant(ev inspect.DecisionEvent) error {
	req, err := core.LoggedRequest(ev.User, ev.Roles, ev.Operation, ev.Target, ev.Context)
	if err != nil {
		return fmt.Errorf("%w: seq %d has unparseable context %q: %v", ErrDiverged, ev.Seq, ev.Context, err)
	}
	t := ev.Time
	m.applyTime.Store(&t)
	defer m.applyTime.Store((*time.Time)(nil))
	dec, err := m.pdp.Engine().Evaluate(req)
	if err != nil {
		return fmt.Errorf("replica: apply seq %d: %w", ev.Seq, err)
	}
	if dec.Effect != core.Grant {
		return fmt.Errorf("%w: owner granted seq %d (%s on %s by %s in %q) but the mirror denies: %v",
			ErrDiverged, ev.Seq, ev.Operation, ev.Target, ev.User, ev.Context, dec.Denial)
	}
	if dec.Recorded != ev.Recorded || dec.Purged != ev.Purged {
		return fmt.Errorf("%w: seq %d effects differ: owner recorded=%d purged=%d, mirror recorded=%d purged=%d",
			ErrDiverged, ev.Seq, ev.Recorded, ev.Purged, dec.Recorded, dec.Purged)
	}
	return nil
}

// applyOp applies the op an event stands for (pdp.EventOp) as the owner
// did, and checks its effect against the owner's echo: the records a
// purge removed, and for an activation that the mirror did not find the
// instance running already (the owner publishes only one it activated).
func (m *Mirror) applyOp(ev inspect.DecisionEvent) error {
	op, err := pdp.EventOp(ev)
	if err != nil {
		return fmt.Errorf("%w: seq %d: %v", ErrDiverged, ev.Seq, err)
	}
	eff, err := m.pdp.Apply("", op)
	if err != nil {
		return fmt.Errorf("replica: apply seq %d: %w", ev.Seq, err)
	}
	if op.Kind == adi.OpActivate && eff.Activated != 1 {
		return fmt.Errorf("%w: activation seq %d of %q: the mirror has it running already", ErrDiverged, ev.Seq, ev.Context)
	}
	if eff.Removed != ev.Purged {
		return fmt.Errorf("%w: %s seq %d removed %d records on the mirror, %d on the owner",
			ErrDiverged, ev.Operation, ev.Seq, eff.Removed, ev.Purged)
	}
	return nil
}

// Reset replaces the mirror's state with a snapshot: the store is
// reloaded from the dump and the applied sequence jumps to the
// snapshot's. Readers may observe the brief empty window; the follower
// marks itself syncing (and therefore refuses to serve) around Reset.
func (m *Mirror) Reset(snap server.ReplicaSnapshot) error {
	recs := make([]adi.Record, 0, len(snap.Records))
	for _, sr := range snap.Records {
		rec, err := sr.ADIRecord()
		if err != nil {
			return fmt.Errorf("replica: snapshot record context %q: %w", sr.Context, err)
		}
		recs = append(recs, rec)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store.Reset()
	if len(recs) > 0 {
		if err := m.store.Append(recs...); err != nil {
			return fmt.Errorf("replica: load snapshot: %w", err)
		}
	}
	m.appliedSeq.Store(snap.Seq)
	return nil
}
