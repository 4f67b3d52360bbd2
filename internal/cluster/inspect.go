package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"msod/internal/inspect"
	"msod/internal/server"
)

// eventsFanInBuffer is the merged event channel's capacity; a consumer
// slower than the cluster's decision rate drops the connection rather
// than stalling shard tails forever.
const eventsFanInBuffer = 256

// eventsReconnectBackoff paces re-dials of a shard whose event stream
// dropped (restart, transient network failure).
const eventsReconnectBackoff = 500 * time.Millisecond

// handleStateUser proxies /v1/state/users/{user} to the single shard
// that owns the user — the only shard holding their retained ADI.
func (g *Gateway) handleStateUser(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	user := strings.TrimPrefix(r.URL.Path, server.StateUsersPath)
	if user == "" {
		errorJSON(w, http.StatusBadRequest, "user ID required: GET "+server.StateUsersPath+"{user}")
		return
	}
	shard, ok := g.ring.Lookup(user)
	if !ok {
		errorJSON(w, http.StatusServiceUnavailable, "no shards in ring")
		return
	}
	if !g.checker.Up(shard) {
		g.metrics.unavailable.Add(1)
		errorJSON(w, http.StatusServiceUnavailable,
			fmt.Sprintf("shard %s (owner of user %q) is down; failing closed", shard, user))
		return
	}
	c, _ := g.client(shard)
	st, err := c.UserState(user)
	if err != nil {
		var apiErr *server.APIError
		if errors.As(err, &apiErr) {
			errorJSON(w, apiErr.Status, apiErr.Message)
			return
		}
		g.checker.ReportFailure(shard, err)
		errorJSON(w, http.StatusBadGateway, fmt.Sprintf("shard %s: %v", shard, err))
		return
	}
	w.Header().Set("X-Msod-Shard", shard)
	server.WriteJSON(w, http.StatusOK, st)
}

// handleStateContext fans /v1/state/contexts/{bc} out to every
// authoritative shard and merges the answers: a context instance spans
// shards whenever different users act in it, so a single-shard answer
// would silently hide participants. Like management, it requires the
// full set up — a merged answer missing a down shard's users would
// misreport who is close to a violation.
func (g *Gateway) handleStateContext(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	pattern := strings.TrimPrefix(r.URL.Path, server.StateContextsPath)
	if pattern == "" {
		errorJSON(w, http.StatusBadRequest, "context pattern required: GET "+server.StateContextsPath+"{bc}")
		return
	}
	shards := g.shards(authoritative)
	if !g.requireUp(w, shards, "context state", "a partial answer would hide that shard's users") {
		return
	}
	results := scatter(r.Context(), g, shards, func(ctx context.Context, _ string, c *server.Client) (inspect.ContextState, error) {
		return c.ContextStateCtx(ctx, pattern)
	})

	merged := inspect.ContextState{Context: pattern}
	instances := map[string]bool{}
	for _, res := range results {
		if res.api != nil {
			errorJSON(w, res.api.Status, fmt.Sprintf("shard %s: %s", res.shard, res.api.Message))
			return
		}
		if res.err != nil {
			errorJSON(w, http.StatusBadGateway, fmt.Sprintf("shard %s: %v", res.shard, res.err))
			return
		}
		merged.Context = res.val.Context // canonical form from the shards
		for _, inst := range res.val.Instances {
			instances[inst] = true
		}
		// A user's row counts only from the shard the ring names as the
		// owner — the ownership rule the decision path's echo-check
		// applies. A failed or unreleased handoff leaves deny-safe copies
		// of a user's history on shards that do not own it; listing those
		// rows too would show the user twice.
		for _, u := range res.val.Users {
			if owner, ok := g.ring.Lookup(u.User); ok && owner == res.shard {
				merged.Users = append(merged.Users, u)
			}
		}
	}
	for inst := range instances {
		merged.Instances = append(merged.Instances, inst)
	}
	sort.Strings(merged.Instances)
	sort.Slice(merged.Users, func(i, j int) bool { return merged.Users[i].User < merged.Users[j].User })
	server.WriteJSON(w, http.StatusOK, merged)
}

// handleEvents fans in every tracked shard's /v1/events stream,
// stamping each event with shard="<id>" before re-emitting it on one
// merged SSE stream for as long as the client stays connected. The
// merged stream has no sequence of its own to resume from, so a
// request carrying Last-Event-ID is answered 410, as a shard answers a
// resume point its ring no longer holds: the follower learns of the gap
// (server.ErrEventGap) instead of rejoining live past it.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if r.Header.Get(server.LastEventIDHeader) != "" {
		errorJSON(w, http.StatusGone, "the gateway's merged event stream cannot resume from "+server.LastEventIDHeader+"; follow it again live")
		return
	}
	q := r.URL.Query()
	// Validate filters locally so a bad pattern is a 400 here, not a
	// per-shard error after the stream has started.
	if _, err := inspect.NewFilter(q.Get("user"), q.Get("context"), q.Get("outcome")); err != nil {
		errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	opts := server.FollowEventsOptions{User: q.Get("user"), Context: q.Get("context"), Outcome: q.Get("outcome")}
	if v := q.Get("replay"); v != "" {
		replay, err := strconv.Atoi(v)
		if err != nil || replay < 0 {
			errorJSON(w, http.StatusBadRequest, "replay must be a non-negative integer")
			return
		}
		opts.Replay = replay
	}
	events := make(chan inspect.DecisionEvent, eventsFanInBuffer)
	for _, shard := range g.shards(tracked) {
		go g.tailShard(r.Context(), shard, opts, events)
	}
	server.ServeEvents(w, r, events)
}

// tailShard follows one shard's event stream into out, each event
// stamped with the shard's ID, until the consumer's context ends.
// FollowEvents is the one resume cursor: it rides out drops, restarts
// and 5xx answers, a Down shard included. When it returns all the same
// — a resume gap, or a refusal such as a shard run without an event
// broker — the shard is followed again live after a pause. A refused
// stream is the shard's verdict, as on the routed path, so it never
// counts as a shard failure.
func (g *Gateway) tailShard(ctx context.Context, shard string, opts server.FollowEventsOptions, out chan<- inspect.DecisionEvent) {
	for {
		c, ok := g.client(shard)
		if !ok {
			return
		}
		_ = c.FollowEvents(ctx, opts, func(ev inspect.DecisionEvent) error {
			ev.Shard = shard
			select {
			case out <- ev:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		// Replay is a first-connection courtesy only: replaying again
		// would duplicate events already delivered.
		opts.Replay = 0
		if !sleepContext(ctx, eventsReconnectBackoff) {
			return
		}
	}
}
