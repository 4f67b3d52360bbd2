package audit

import (
	"fmt"
	"time"

	"msod/internal/adi"
	"msod/internal/core"
)

// ReplayStats summarises a retained-ADI reconstruction.
type ReplayStats struct {
	// Events is how many verified events were considered.
	Events int
	// Replayed is how many granted MSoD-relevant events were re-applied.
	Replayed int
	// Diverged counts events that the trail recorded as Grant but the
	// current policy set denies on re-evaluation (this happens when
	// policies changed between runs; the stricter current policy wins).
	Diverged int
	// Records is the size of the rebuilt retained ADI.
	Records int
}

// Replay reconstructs a retained ADI from verified trail events by
// re-evaluating every granted MSoD-relevant decision against the current
// policy set, in order, into the given store (§5.2: the PDP "extracts
// the retained ADI from these according to its current set of MSoD
// policies"). Re-evaluation reproduces the recording *and* last-step
// purging behaviour exactly, so the rebuilt store matches what the live
// engine held at the moment the trail ended.
//
// The store should be empty; records already present are treated as
// pre-existing history.
func Replay(events []Event, policies []core.Policy, store adi.Recorder) (ReplayStats, error) {
	r, err := newReplayer(policies, store)
	if err != nil {
		return ReplayStats{}, err
	}
	stats := ReplayStats{Events: len(events)}
	for _, ev := range events {
		dec, err := r.replay(ev)
		switch {
		case err != nil:
			return stats, fmt.Errorf("audit: replay seq %d: %w", ev.Seq, err)
		case dec == nil:
		case dec.Effect == core.Deny:
			stats.Diverged++
		default:
			stats.Replayed++
		}
	}
	stats.Records = store.Len()
	return stats, nil
}

// replayer re-evaluates logged grants on an engine whose clock reads
// the time of the event being replayed, so rebuilt records carry their
// historical timestamps.
type replayer struct {
	eng *core.Engine
	now time.Time
}

func newReplayer(policies []core.Policy, store adi.Recorder) (*replayer, error) {
	r := &replayer{}
	eng, err := core.NewEngine(store, policies, core.WithClock(func() time.Time { return r.now }))
	r.eng = eng
	return r, err
}

// replay re-evaluates ev when it is a granted MSoD-relevant decision,
// returning the engine's read-only decision, and skips it (nil)
// otherwise.
func (r *replayer) replay(ev Event) (*core.Decision, error) {
	if ev.Effect != EffectGrant || ev.MatchedPolicies == 0 {
		return nil, nil
	}
	req, err := eventRequest(ev)
	if err != nil {
		return nil, err
	}
	r.now = ev.Time
	return r.eng.Evaluate(req)
}

// eventRequest converts a logged event back into an engine request.
func eventRequest(ev Event) (core.Request, error) {
	return core.LoggedRequest(ev.User, ev.Roles, ev.Operation, ev.Target, ev.Context)
}

// NewEvent builds a trail event from an engine request and decision.
// Its Context is the request context's canonical text: spelled, the
// text the caller parsed it from, when that is it already, which costs
// no allocation (bctx.Name.Spelled); rendered otherwise.
func NewEvent(req core.Request, spelled string, dec core.Decision, at time.Time) Event {
	roles := make([]string, len(req.Roles))
	for i, r := range req.Roles {
		roles[i] = string(r)
	}
	effect := EffectGrant
	if dec.Effect == core.Deny {
		effect = EffectDeny
	}
	return Event{
		Time:            at,
		User:            string(req.User),
		Roles:           roles,
		Operation:       string(req.Operation),
		Target:          string(req.Target),
		Context:         req.Context.Spelled(spelled),
		Effect:          effect,
		MatchedPolicies: dec.MatchedPolicies,
	}
}
