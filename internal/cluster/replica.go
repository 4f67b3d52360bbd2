package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"

	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/replica"
	"msod/internal/server"
)

// replicaSet is one shard's advisory replica pool. next rotates the
// starting replica per read so load spreads across the pool instead of
// hammering the first URL while the rest idle.
type replicaSet struct {
	urls []string
	next atomic.Uint64
}

// ordered returns the pool rotated to this read's starting replica.
func (rs *replicaSet) ordered() []string {
	n := len(rs.urls)
	if n <= 1 {
		return rs.urls
	}
	start := int((rs.next.Add(1) - 1) % uint64(n))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rs.urls[(start+i)%n])
	}
	return out
}

// replicaAnswer is one raw replica response: enough to forward the
// body and the bounded-staleness stamps without re-interpreting them.
type replicaAnswer struct {
	status int
	header http.Header
	body   []byte
}

// replicaDo performs one bounded request against a replica. Any
// transport or read error just disqualifies this replica for this
// read — replicas are an optimisation, never a dependency, so errors
// here are not reported to the shard checker or breaker.
func (g *Gateway) replicaDo(ctx context.Context, method, rawURL, traceparent string, body []byte) (replicaAnswer, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawURL, rd)
	if err != nil {
		return replicaAnswer{}, err
	}
	if body != nil {
		server.SetJSONContentType(req.Header)
	}
	if traceparent != "" {
		req.Header[obsv.TraceparentHeader] = []string{traceparent}
	}
	hc := g.cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return replicaAnswer{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return replicaAnswer{}, err
	}
	return replicaAnswer{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// forwardReplicaAnswer writes a replica's 200 through to the caller,
// preserving the staleness-contract stamps and naming the shard whose
// state the answer mirrors.
func forwardReplicaAnswer(w http.ResponseWriter, shard string, ans replicaAnswer) {
	if v := ans.header.Get(replica.ReplicaSeqHeader); v != "" {
		w.Header().Set(replica.ReplicaSeqHeader, v)
	}
	if v := ans.header.Get(replica.ReplicaLagHeader); v != "" {
		w.Header().Set(replica.ReplicaLagHeader, v)
	}
	w.Header().Set("X-Msod-Shard", shard)
	writeAnswer(w, ans.body)
}

// askReplicas asks a shard's replicas in rotated order, under the
// caller's context bounded by cfg.Timeout, and returns the first 200
// whose body decodes as a T, raw and decoded. A non-empty traceparent is
// sent as it is. Only a 200 is ever used:
// a replica's refusals (503 stale, 421) and errors are its own
// business, and the owning shard remains the authority.
func askReplicas[T any](ctx context.Context, g *Gateway, set *replicaSet, method, path, traceparent string, body []byte) (replicaAnswer, T, bool) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.Timeout)
	defer cancel()
	for _, base := range set.ordered() {
		ans, err := g.replicaDo(ctx, method, base+path, traceparent, body)
		if err != nil || ans.status != http.StatusOK {
			continue
		}
		var v T
		if json.Unmarshal(ans.body, &v) != nil {
			continue
		}
		return ans, v, true
	}
	var none T
	return replicaAnswer{}, none, false
}

// handleAdvice serves /v1/advice replica-first: when the owning shard
// has advisory replicas configured, a fresh replica answers from its
// mirror (the answer carries the X-Msod-Replica-Seq/Lag stamps so the
// caller can see what it got); any replica failure — stale refusal,
// transport error, resync in progress — falls back to the owning shard
// exactly as if no replicas existed. Decisions never come here:
// /v1/decision routes to the owner unconditionally, because a replica
// grant would be a false grant.
func (g *Gateway) handleAdvice(w http.ResponseWriter, r *http.Request) {
	body, peek, traceparent, ok := g.admitRouted(w, r)
	if !ok {
		return
	}
	if shard, ok := g.ring.Lookup(peek.Subject); ok {
		if set := g.replicas[shard]; set != nil {
			if g.tryReplicaAdvice(w, r, shard, set, body, traceparent) {
				return
			}
			g.metrics.replicaFallbacks.Add(1)
		}
	}
	g.routeDecision(w, r, body, peek, traceparent, server.AdvicePath)
}

// tryReplicaAdvice forwards the first trustworthy replica answer (see
// askReplicas), so on any refusal the caller sees the owner's verdict,
// not a replica's. The same ownership echo-check as the owner path
// applies: an answer resolving a subject the routed shard does not own
// is dropped, and the owner path decides what that misroute means.
func (g *Gateway) tryReplicaAdvice(w http.ResponseWriter, r *http.Request, shard string, set *replicaSet, body []byte, traceparent string) bool {
	ans, resp, ok := askReplicas[server.DecisionResponse](r.Context(), g, set, http.MethodPost, server.AdvicePath, traceparent, body)
	if !ok {
		return false
	}
	if owner, ok := g.ring.Lookup(resp.User); resp.User == "" || !ok || owner != shard {
		return false
	}
	g.metrics.replicaReads.Add(1)
	forwardReplicaAnswer(w, shard, ans)
	return true
}

// tryReplicaStateUser proxies one /v1/state/users read to the shard's
// replicas, forwarding the first 200 with its staleness stamps.
func (g *Gateway) tryReplicaStateUser(w http.ResponseWriter, r *http.Request, shard, user string) bool {
	set := g.replicas[shard]
	if set == nil {
		return false
	}
	ans, _, ok := askReplicas[json.RawMessage](r.Context(), g, set, http.MethodGet, server.StateUsersPath+url.PathEscape(user), "", nil)
	if !ok {
		g.metrics.replicaFallbacks.Add(1)
		return false
	}
	g.metrics.replicaReads.Add(1)
	forwardReplicaAnswer(w, shard, ans)
	return true
}

// replicaContextState fetches one shard's slice of a context-state
// fan-out from its replicas, reporting whether a fresh replica
// answered. Used per shard inside handleStateContext's fan-out, so a
// cluster-wide context query mostly reads replicas and only bothers
// owners whose replicas cannot answer.
func (g *Gateway) replicaContextState(ctx context.Context, shard, pattern string) (inspect.ContextState, bool) {
	set := g.replicas[shard]
	if set == nil {
		return inspect.ContextState{}, false
	}
	_, st, ok := askReplicas[inspect.ContextState](ctx, g, set, http.MethodGet, server.StateContextsPath+url.PathEscape(pattern), "", nil)
	if !ok {
		g.metrics.replicaFallbacks.Add(1)
		return inspect.ContextState{}, false
	}
	g.metrics.replicaReads.Add(1)
	return st, true
}

// ReplicasFor reports the configured replica URLs for a shard (for
// introspection and tests).
func (g *Gateway) ReplicasFor(shard string) []string {
	set := g.replicas[shard]
	if set == nil {
		return nil
	}
	out := make([]string, len(set.urls))
	copy(out, set.urls)
	return out
}
