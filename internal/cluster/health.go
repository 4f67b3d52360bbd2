package cluster

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"msod/internal/server"
)

// State is a shard's availability as the gateway sees it.
type State int

const (
	// Up: the shard serves its users.
	Up State = iota
	// Down: decisions for the shard's users fail closed (503). A Down
	// shard returns to Up only through a successful health probe —
	// never through a lucky request — so a restarting shard is not
	// handed traffic before its durable retained ADI has recovered
	// (OpenDurable replays the WAL before the server ever listens, so
	// a passing probe implies recovered history).
	Down
)

// String renders the state.
func (s State) String() string {
	if s == Up {
		return "up"
	}
	return "down"
}

// Status is one shard's health snapshot.
type Status struct {
	State State
	// PolicyID is the policy the shard reported on its last successful
	// probe. Shards of one cluster must run the same policy; the
	// gateway's health endpoint surfaces disagreement.
	PolicyID string
	// LastErr is the most recent probe or transport failure.
	LastErr string
	// Consecutive counts failures since the last success.
	Consecutive int
	// LastChecked is when the last probe completed.
	LastChecked time.Time
}

// Probe checks one shard, returning its reported policy ID.
type Probe func(shard string) (policyID string, err error)

// Checker tracks shard health from periodic probes and from transport
// failures the gateway's decision path reports.
type Checker struct {
	probe     Probe
	failAfter int

	mu     sync.Mutex
	states map[string]*Status

	stopOnce sync.Once
	stop     chan struct{}
}

// NewChecker tracks the given shards. A shard is marked Down after
// failAfter consecutive failures (probe or reported transport errors;
// minimum 1). Shards start Up: the worst a wrong initial Up can cause
// is a retried transport error, never a false grant.
func NewChecker(shards []string, probe Probe, failAfter int) *Checker {
	if failAfter < 1 {
		failAfter = 1
	}
	c := &Checker{
		probe:     probe,
		failAfter: failAfter,
		states:    make(map[string]*Status, len(shards)),
		stop:      make(chan struct{}),
	}
	for _, s := range shards {
		c.states[s] = &Status{State: Up}
	}
	return c
}

// Add starts tracking a shard that joined the topology after boot. It
// starts Down — unlike boot-time shards, a joiner has already been
// probed by the admission path, and the next CheckNow (the admission
// path runs one) flips it Up; starting pessimistic means a joiner that
// dies between admission and first probe never looks serveable.
func (c *Checker) Add(shard string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.states[shard]; ok {
		return
	}
	c.states[shard] = &Status{State: Down, Consecutive: c.failAfter}
}

// Remove stops tracking a shard that left the topology.
func (c *Checker) Remove(shard string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.states, shard)
}

// Up reports whether the shard currently serves traffic.
func (c *Checker) Up(shard string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.states[shard]
	return ok && st.State == Up
}

// Statuses returns a snapshot of every shard's health, keyed by shard.
func (c *Checker) Statuses() map[string]Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Status, len(c.states))
	for s, st := range c.states {
		out[s] = *st
	}
	return out
}

// Shards returns the tracked shard IDs, sorted.
func (c *Checker) Shards() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.states))
	for s := range c.states {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ReportFailure feeds a decision-path transport failure into the
// health state: enough consecutive ones mark the shard Down without
// waiting for the next probe round.
func (c *Checker) ReportFailure(shard string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.states[shard]
	if !ok {
		return
	}
	st.Consecutive++
	st.LastErr = err.Error()
	if st.Consecutive >= c.failAfter {
		st.State = Down
	}
}

// CheckNow probes every shard once, synchronously, and updates states.
func (c *Checker) CheckNow() {
	for _, shard := range c.Shards() {
		policyID, err := c.probe(shard)
		c.mu.Lock()
		st, ok := c.states[shard]
		if !ok {
			c.mu.Unlock()
			continue
		}
		st.LastChecked = time.Now()
		if err != nil {
			st.Consecutive++
			st.LastErr = err.Error()
			if st.Consecutive >= c.failAfter {
				st.State = Down
			}
		} else {
			st.Consecutive = 0
			st.LastErr = ""
			st.PolicyID = policyID
			st.State = Up
		}
		c.mu.Unlock()
	}
}

// Start probes all shards every interval until Stop.
func (c *Checker) Start(interval time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.CheckNow()
			}
		}
	}()
}

// Stop halts periodic probing (idempotent; safe if Start never ran).
func (c *Checker) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// handleHealth reports the gateway's own view: ok only when every
// authoritative shard is up and all report the same policy. A shard
// that is merely joining (or gone) owns no users, so its health cannot
// degrade the cluster; while a handoff runs, an otherwise healthy
// cluster reports "rebalancing" so operators see the window without
// paging on it.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	statuses := g.checker.Statuses()
	overall := "ok"
	policies := map[string]bool{}
	type shardHealth struct {
		State     string `json:"state"`
		Lifecycle string `json:"lifecycle"`
		Breaker   string `json:"breaker,omitempty"`
		Policy    string `json:"policy,omitempty"`
		LastErr   string `json:"lastError,omitempty"`
		Failures  int    `json:"consecutiveFailures,omitempty"`
	}
	breakers := g.breaker.States()
	shards := make(map[string]shardHealth, len(statuses))
	for id, st := range statuses {
		life, _ := g.shardState(id)
		if life.Authoritative() {
			if st.State != Up {
				overall = "degraded"
			}
			if breakers[id] != BreakerClosed {
				overall = "degraded"
			}
			if st.PolicyID != "" {
				policies[st.PolicyID] = true
			}
		}
		shards[id] = shardHealth{
			State: st.State.String(), Lifecycle: life.String(),
			Breaker: breakers[id].String(), Policy: st.PolicyID,
			LastErr: st.LastErr, Failures: st.Consecutive,
		}
	}
	if len(policies) > 1 {
		overall = "degraded" // policy split-brain: shards disagree
	}
	if active, _ := g.handoffActive(); active && overall == "ok" {
		overall = "rebalancing"
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status": overall,
		"role":   "gateway",
		"shards": shards,
	})
}
