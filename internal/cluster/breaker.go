package cluster

import (
	"sync"
	"time"
)

// BreakerState is one per-shard circuit state.
type BreakerState int

const (
	// BreakerClosed passes traffic normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits a single probe request after the cooldown;
	// its outcome closes or re-opens the circuit.
	BreakerHalfOpen
	// BreakerOpen refuses traffic until the cooldown elapses.
	BreakerOpen
)

// String names the state for logs and health output.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// GaugeValue encodes the state for the msodgw_breaker_state gauge:
// 0 closed, 1 half-open, 2 open.
func (s BreakerState) GaugeValue() int { return int(s) }

// Breaker is a per-shard circuit breaker on the gateway's request
// path. The health Checker sees the same transport failures (the
// request path reports each through Checker.ReportFailure), so with
// the Checker's threshold below the breaker's, as by default, a
// failing shard is marked Down before its circuit opens. The breaker
// sheds load only off a shard whose probes pass while its decisions
// fail, or when the Checker's threshold is set above its own.
//
// Transitions: Closed --threshold consecutive failures--> Open
// --cooldown--> HalfOpen (one probe) --success--> Closed, or
// --failure--> Open again.
//
// Breaker is safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests
	shards    map[string]*breakerShard
}

type breakerShard struct {
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool // the half-open probe slot is taken
}

// NewBreaker builds a breaker for the given shard IDs, opening a
// shard's circuit after threshold consecutive transport failures and
// re-probing it after cooldown.
func NewBreaker(shards []string, threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	b := &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		shards:    make(map[string]*breakerShard, len(shards)),
	}
	for _, id := range shards {
		b.shards[id] = &breakerShard{}
	}
	return b
}

// Add starts tracking a shard that joined after boot, circuit closed.
func (b *Breaker) Add(shard string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.shards[shard]; !ok {
		b.shards[shard] = &breakerShard{}
	}
}

// Remove stops tracking a shard that left the topology.
func (b *Breaker) Remove(shard string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.shards, shard)
}

// Allow reports whether a request may be sent to the shard. In
// half-open it hands out the single probe slot, so a caller that was
// allowed MUST report Success or Failure — otherwise the slot stays
// taken until the next cooldown. Unknown shards are always allowed.
func (b *Breaker) Allow(shard string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.shards[shard]
	if !ok {
		return true
	}
	switch s.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(s.openedAt) < b.cooldown {
			return false
		}
		s.state = BreakerHalfOpen
		s.probing = true
		return true
	case BreakerHalfOpen:
		if s.probing {
			return false
		}
		s.probing = true
		return true
	}
	return true
}

// Success records a shard answer (any deliberate response, including
// an HTTP error the shard chose to send): the circuit closes.
func (b *Breaker) Success(shard string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.shards[shard]; ok {
		s.state = BreakerClosed
		s.consecutive = 0
		s.probing = false
	}
}

// Failure records a transport failure. The half-open probe failing —
// or the threshold-th consecutive failure while closed — opens the
// circuit and restarts the cooldown.
func (b *Breaker) Failure(shard string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.shards[shard]
	if !ok {
		return
	}
	s.consecutive++
	s.probing = false
	if s.state == BreakerHalfOpen || s.consecutive >= b.threshold {
		s.state = BreakerOpen
		s.openedAt = b.now()
	}
}

// State reports a shard's current circuit state. An open circuit past
// its cooldown reads as half-open (the state Allow would move it to).
func (b *Breaker) State(shard string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.shards[shard]
	if !ok {
		return BreakerClosed
	}
	if s.state == BreakerOpen && b.now().Sub(s.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return s.state
}

// States snapshots every shard's state for metrics and health output.
func (b *Breaker) States() map[string]BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]BreakerState, len(b.shards))
	for id, s := range b.shards {
		st := s.state
		if st == BreakerOpen && b.now().Sub(s.openedAt) >= b.cooldown {
			st = BreakerHalfOpen
		}
		out[id] = st
	}
	return out
}

// RetryAfter reports how long a refused caller should wait before the
// shard's circuit will admit a probe, rounded up to a whole second
// (HTTP Retry-After granularity).
func (b *Breaker) RetryAfter(shard string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.shards[shard]
	if !ok || s.state != BreakerOpen {
		return time.Second
	}
	left := b.cooldown - b.now().Sub(s.openedAt)
	if left < time.Second {
		return time.Second
	}
	return left.Round(time.Second)
}
