package audit

import (
	"fmt"
	"slices"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/rbac"
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
// historical timestamps. It parses and types what one replay reads of
// its events' text once, within bounds: a trail's live instances are a
// few clients' open periods and processes, each in a few dozen
// branches or offices, by a few roles.
type replayer struct {
	eng *core.Engine
	now time.Time
	// contexts is the name each context text parsed to, and roles the
	// one-role slice of each role an event named alone; each holds up
	// to replayTexts of them. Names and the slices are read-only: the
	// engine reads a request's, and the store keeps its own
	// (adi.Recorder).
	contexts map[string]bctx.Name
	roles    map[string][]rbac.RoleName
}

// replayTexts bounds the texts a replay keeps parsed or typed; a map
// that fills starts over, as most of the instances it held are closed.
const replayTexts = 1024

func newReplayer(policies []core.Policy, store adi.Recorder) (*replayer, error) {
	r := &replayer{contexts: make(map[string]bctx.Name), roles: make(map[string][]rbac.RoleName)}
	eng, err := core.NewEngine(store, policies, core.WithClock(func() time.Time { return r.now }))
	r.eng = eng
	return r, err
}

// replay re-evaluates one event; it returns nil for events that are not
// granted MSoD-relevant decisions.
func (r *replayer) replay(ev Event) (*core.Decision, error) {
	if ev.Effect != EffectGrant || ev.MatchedPolicies == 0 {
		return nil, nil
	}
	ctx, err := r.context(ev.Context)
	if err != nil {
		return nil, err
	}
	r.now = ev.Time
	return r.eng.Evaluate(core.Request{User: rbac.UserID(ev.User), Roles: r.typed(ev.Roles),
		Operation: rbac.Operation(ev.Operation), Target: rbac.Object(ev.Target), Context: ctx})
}

// context is text parsed: the name the replay parsed it to before, or
// a new parse, which it keeps.
func (r *replayer) context(text string) (bctx.Name, error) {
	if name, ok := r.contexts[text]; ok {
		return name, nil
	}
	name, err := bctx.Parse(text)
	if err != nil {
		return bctx.Name{}, err
	}
	if len(r.contexts) == replayTexts {
		clear(r.contexts)
	}
	r.contexts[text] = name
	return name, nil
}

// typed is roles as the engine takes them: for one role, the slice the
// replay typed it into before, or a new one, which it keeps.
func (r *replayer) typed(roles []string) []rbac.RoleName {
	if len(roles) == 1 {
		if t, ok := r.roles[roles[0]]; ok {
			return t
		}
	}
	t := make([]rbac.RoleName, len(roles))
	for i, role := range roles {
		t[i] = rbac.RoleName(role)
	}
	if len(roles) == 1 {
		if len(r.roles) == replayTexts {
			clear(r.roles)
		}
		r.roles[roles[0]] = t
	}
	return t
}

// NewEvent builds a trail event from an engine request and decision.
// Its Context is the request context's canonical text: spelled, the
// text the caller parsed it from, when that is it already, which costs
// no allocation (bctx.Name.Spelled); rendered otherwise. Its Roles are
// roleText, the text the caller converted req.Roles from, when it
// spells them role for role — the event keeps that slice, no
// allocation — and a conversion of req.Roles otherwise.
func NewEvent(req core.Request, spelled string, roleText []string, dec core.Decision, at time.Time) Event {
	effect := EffectGrant
	if dec.Effect == core.Deny {
		effect = EffectDeny
	}
	return Event{
		Time:            at,
		User:            string(req.User),
		Roles:           eventRoles(req.Roles, roleText),
		Operation:       string(req.Operation),
		Target:          string(req.Target),
		Context:         req.Context.Spelled(spelled),
		Effect:          effect,
		MatchedPolicies: dec.MatchedPolicies,
	}
}

// eventRoles is roles as an event's text: text when it spells them,
// role for role, and a conversion otherwise.
func eventRoles(roles []rbac.RoleName, text []string) []string {
	if slices.EqualFunc(roles, text, func(r rbac.RoleName, s string) bool { return string(r) == s }) {
		return text
	}
	out := make([]string, len(roles))
	for i, r := range roles {
		out[i] = string(r)
	}
	return out
}
