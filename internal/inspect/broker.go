// Package inspect provides live observability over MSoD state: a
// retained-ADI introspection API (per user × context instance
// constraint progress, the operator's "how close is this user to a
// violation" view), a bounded decision event broker feeding /v1/events
// subscribers, and an audit-chain integrity sentinel that continuously
// re-verifies the HMAC chain the paper only checks at start-up
// reconstruction (§5.2).
package inspect

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"msod/internal/bctx"
	"msod/internal/ring"
)

// Decision outcomes as they appear in events and filters (matching the
// audit trail's effect vocabulary). OutcomePurge, OutcomeActivate and
// OutcomeImport extend it: management purges, carried closes, a
// cluster's context activations and a resharding handoff's release and
// import mutate the retained ADI without being decisions (pdp.PDP.Apply
// publishes each), so the stream tells every change to it. An import's
// event carries how many records it appended, not the records.
const (
	OutcomeGrant    = "grant"
	OutcomeDeny     = "deny"
	OutcomePurge    = "purge"
	OutcomeActivate = "activate"
	OutcomeImport   = "import"
)

// ErrGap reports that a sequence-resumed subscription cannot be
// satisfied: the events after the requested sequence have rotated out
// of the ring (or the broker restarted and its numbering reset), so
// resuming would silently skip history. Callers must fall back to a
// full state resync instead.
var ErrGap = errors.New("inspect: resume gap: requested sequence is no longer retained")

// DecisionEvent is one PDP decision as published to the event stream.
// It mirrors the audit event's request echo, with the denial stage and
// reason added so a tailing operator sees *why* without opening the
// trail.
type DecisionEvent struct {
	// Seq is the broker-assigned publication number (1-based,
	// per-broker; not the audit trail sequence).
	Seq uint64 `json:"seq"`
	// Time is the decision time.
	Time time.Time `json:"time"`
	// TraceID correlates the event with the DecisionResponse, gateway
	// log line and audit record of the same request.
	TraceID string `json:"trace,omitempty"`
	// User, Roles, Operation, Target, Context echo the request.
	User      string   `json:"user"`
	Roles     []string `json:"roles,omitempty"`
	Operation string   `json:"op"`
	Target    string   `json:"target"`
	Context   string   `json:"ctx"`
	// Effect is OutcomeGrant, OutcomeDeny, OutcomePurge, OutcomeActivate
	// or OutcomeImport.
	Effect string `json:"effect"`
	// Stage names the pipeline stage that denied (cvs, rbac, msod);
	// empty on grants.
	Stage string `json:"stage,omitempty"`
	// Reason is the denial explanation; empty on grants.
	Reason string `json:"reason,omitempty"`
	// Rule, K and M identify the refusing MSoD constraint on an msod
	// denial — the rule's ID within its policy ("MMER[0]", "MMEP[1]"),
	// the conflict count already consumed, and the forbidden
	// cardinality — so a tailing operator sees which k-of-m counter
	// tripped without fetching the full explain record.
	Rule string `json:"rule,omitempty"`
	K    int    `json:"k,omitempty"`
	M    int    `json:"m,omitempty"`
	// MatchedPolicies is how many MSoD policies matched the request.
	MatchedPolicies int `json:"matched,omitempty"`
	// Recorded and Purged echo the decision's retained-ADI effects
	// (records appended, records removed by a last-step or management
	// purge).
	Recorded int `json:"recorded,omitempty"`
	Purged   int `json:"purged,omitempty"`
	// Before is the cutoff of a purge-before management event; nil
	// otherwise.
	Before *time.Time `json:"before,omitempty"`
	// Shard is stamped by the gateway fan-in with the shard ID the
	// event came from; empty on a shard's own stream.
	Shard string `json:"shard,omitempty"`
}

// Filter selects a subset of the event stream. The zero Filter matches
// everything. Construct with NewFilter to validate and compile the
// context pattern.
type Filter struct {
	// User, when non-empty, matches only that user's decisions.
	User string
	// Outcome, when non-empty, is one of the Outcome* effects.
	Outcome string

	ctx    bctx.Name
	hasCtx bool
}

// NewFilter compiles a filter from query-style string parameters. The
// context parameter is a business-context pattern (wildcards allowed);
// events whose instance falls within it match.
func NewFilter(user, ctxPattern, outcome string) (Filter, error) {
	f := Filter{User: user, Outcome: outcome}
	switch outcome {
	case "", OutcomeGrant, OutcomeDeny, OutcomePurge, OutcomeActivate, OutcomeImport:
	default:
		return Filter{}, fmt.Errorf("inspect: outcome %q is not %q, %q, %q, %q or %q", outcome, OutcomeGrant, OutcomeDeny, OutcomePurge, OutcomeActivate, OutcomeImport)
	}
	if ctxPattern != "" {
		pat, err := bctx.Parse(ctxPattern)
		if err != nil {
			return Filter{}, fmt.Errorf("inspect: context filter: %w", err)
		}
		f.ctx, f.hasCtx = pat, true
	}
	return f, nil
}

// Match reports whether the event passes the filter.
func (f Filter) Match(ev DecisionEvent) bool {
	if f.User != "" && ev.User != f.User {
		return false
	}
	if f.Outcome != "" && ev.Effect != f.Outcome {
		return false
	}
	if f.hasCtx {
		inst, err := bctx.Parse(ev.Context)
		if err != nil {
			return false
		}
		ok, err := bctx.MatchInstance(f.ctx, inst)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// Subscriber is one live consumer of the event stream. Events arrive on
// Events(); a consumer that falls behind loses events (counted by
// Dropped) rather than back-pressuring the PDP.
type Subscriber struct {
	ch      chan DecisionEvent
	filter  Filter
	dropped atomic.Uint64
}

// Events is the subscriber's delivery channel. It is closed by
// Unsubscribe (or Close on the broker).
func (s *Subscriber) Events() <-chan DecisionEvent { return s.ch }

// Dropped returns how many matching events were discarded because the
// subscriber's buffer was full.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// DefaultBrokerCapacity is the ring size used when NewBroker is given a
// non-positive capacity.
const DefaultBrokerCapacity = 1024

// Broker is a bounded ring-buffer event broker: the PDP publishes every
// decision, subscribers tail the stream, and the ring retains the most
// recent events for replay and last-trace lookups. Publishing never
// blocks on consumers. Broker is safe for concurrent use.
type Broker struct {
	mu     sync.Mutex
	ring   ring.FIFO[DecisionEvent]
	seq    uint64
	subs   map[*Subscriber]struct{}
	closed bool
}

// wallClock stamps an event published without a time. The PDP stamps
// every event it publishes from its injected clock, so only a publisher
// without one reaches it.
var wallClock = time.Now

// NewBroker returns a broker retaining up to capacity events.
func NewBroker(capacity int) *Broker {
	if capacity <= 0 {
		capacity = DefaultBrokerCapacity
	}
	return &Broker{
		ring: ring.NewFIFO[DecisionEvent](capacity),
		subs: make(map[*Subscriber]struct{}),
	}
}

// Publish assigns the event its sequence number, retains it in the ring
// and fans it out to matching subscribers without blocking. It returns
// the assigned sequence number.
func (b *Broker) Publish(ev DecisionEvent) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	b.seq++
	ev.Seq = b.seq
	if ev.Time.IsZero() {
		ev.Time = wallClock()
	}
	b.ring.Push(ev)
	for s := range b.subs {
		if !s.filter.Match(ev) {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
		}
	}
	return ev.Seq
}

// Subscribe registers a consumer. Up to replay of the most recent
// retained events matching the filter are queued first (oldest first),
// so a tail can show recent history before going live.
func (b *Broker) Subscribe(f Filter, replay int) *Subscriber {
	if replay < 0 {
		replay = 0
	}
	if replay > b.ring.Cap() {
		replay = b.ring.Cap()
	}
	buf := replay + 64
	s := &Subscriber{ch: make(chan DecisionEvent, buf), filter: f}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.ch)
		return s
	}
	if replay > 0 {
		for _, ev := range b.recentLocked(f, replay) {
			s.ch <- ev
		}
	}
	b.subs[s] = struct{}{}
	return s
}

// SubscribeFrom registers a consumer resuming after a known sequence
// number: every retained event with Seq > afterSeq that matches the
// filter is queued first (oldest first, gap-free), then the
// subscription goes live. It returns ErrGap when the span after
// afterSeq is no longer fully retained — either the ring rotated past
// it or the broker restarted and afterSeq is from a previous
// incarnation — because resuming would silently skip events; callers
// must fall back to a full state resync. afterSeq 0 means "from the
// oldest retained event" and gaps once the ring has rotated at all.
func (b *Broker) SubscribeFrom(f Filter, afterSeq uint64) (*Subscriber, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		s := &Subscriber{ch: make(chan DecisionEvent), filter: f}
		close(s.ch)
		return s, nil
	}
	if afterSeq > b.seq {
		return nil, fmt.Errorf("%w: resume after seq %d, but this broker is at seq %d (restarted?)",
			ErrGap, afterSeq, b.seq)
	}
	pending := b.seq - afterSeq
	if pending > uint64(b.ring.Len()) {
		return nil, fmt.Errorf("%w: resume after seq %d needs %d events but only %d are retained (oldest retained seq %d)",
			ErrGap, afterSeq, pending, b.ring.Len(), b.seq-uint64(b.ring.Len())+1)
	}
	s := &Subscriber{ch: make(chan DecisionEvent, int(pending)+64), filter: f}
	for i := b.ring.Len() - int(pending); i < b.ring.Len(); i++ {
		ev := b.ring.At(i)
		if f.Match(ev) {
			s.ch <- ev
		}
	}
	b.subs[s] = struct{}{}
	return s, nil
}

// Unsubscribe removes the consumer and closes its channel.
func (b *Broker) Unsubscribe(s *Subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[s]; !ok {
		return
	}
	delete(b.subs, s)
	close(s.ch)
}

// Close closes every subscriber and stops accepting events.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		delete(b.subs, s)
		close(s.ch)
	}
}

// recentLocked collects the newest n matches and returns them oldest
// first. The caller holds mu.
func (b *Broker) recentLocked(f Filter, n int) []DecisionEvent {
	matches := make([]DecisionEvent, 0, n)
	for i := b.ring.Len() - 1; i >= 0 && len(matches) < n; i-- {
		if ev := b.ring.At(i); f.Match(ev) {
			matches = append(matches, ev)
		}
	}
	slices.Reverse(matches)
	return matches
}

// LastMatch returns the most recent retained event for which match
// returns true.
func (b *Broker) LastMatch(match func(DecisionEvent) bool) (DecisionEvent, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := b.ring.Len() - 1; i >= 0; i-- {
		ev := b.ring.At(i)
		if match(ev) {
			return ev, true
		}
	}
	return DecisionEvent{}, false
}
