package cluster

// The paper's §4.2 algorithm assumes one PDP over one retained ADI. The
// cluster partitions that ADI by user, so every gateway fan-out is a
// place where the single-PDP view is put back together — and where a
// private fail-closed rule can drift from its siblings (PR 10's false
// grant was such a drift). This file is the only place a request fans
// out. scatter owns the per-shard goroutines, the result order, the
// deadline and the error classification; shards owns the shard-set
// rule; requireUp owns the all-Up precondition and its 503. What a
// call site still decides is only what genuinely differs:
//
//	fan-out            shard set                      all-Up precondition  on partial failure
//	-----------------  -----------------------------  -------------------  ------------------------------------------
//	management         authoritative                  yes → 503            per-shard ManagementOutcome; a uniform
//	                                                                       refusal is forwarded
//	context state      authoritative                  yes → 503            first failure's status
//	explain, traces    tracked                        yes → 503            a hit wins; else 502 absence unproven,
//	                                                                       a deliberate refusal, or 404
//	metrics scrape     tracked, and Up                none: skip Down      that shard's body is missing; the family
//	                                                                       merge is unchanged
//	activation sync    authoritative asked, then the  none (a purge has    a join fails, donors stay authoritative;
//	(a join; a user    joiner, or every authoritative passed management's  a purge answers 502 — the administrator
//	or age purge; the  or serving shard, activated    all-Up check; the    repeats it; until the gateway's first sync
//	gateway's first                                   rest dial)           succeeds, every recording decision is a 503
//	decision)
//	open, close        serving (not gone), minus the  none: queued for     NOT a fan-out: queued per shard in one
//	(NOT a fan-out)    answering shard                every one, Down      ordered log, carried by the next request
//	                                                  too                  sent to it, whatever that is (closes.go).
//	                                                                       An open is carried until the shard's own
//	                                                                       answer acknowledges it and is never
//	                                                                       dropped: one that cannot be queued
//	                                                                       withholds the grant with a 503, and a
//	                                                                       shard leaves Down only once it has
//	                                                                       acknowledged its opens. A close never
//	                                                                       withholds the grant; one in doubt is
//	                                                                       dropped — never re-sent — and past a
//	                                                                       fixed bound a shard that answers nothing
//	                                                                       loses its oldest. Every drop is counted
//
// The last row is the lifecycle of a context instance, and it does not go
// through scatter: no request of its own is sent, so a FirstStep or a
// LastStep costs no post. Opens and closes share the carrier and the
// order — an instance name used again is opened and closed on every shard
// in the order one PDP saw — but not the failure rule, because losing one
// costs the opposite way. A missed open is a false grant, so an open is
// re-sent until acknowledged, never dropped, and an open the gateway
// cannot hold withholds the ack. A missed close leaves records of a
// finished instance on one shard — extra denials at worst, never a false
// grant — so a close can never fail a decision; what it must never do is
// happen twice (the instance may have been re-opened in between), which
// is why a close in doubt is dropped and counted instead of retried.
// Neither happens twice on a shard: each is applied once by its kind and
// requestID.
//
// Why the sets differ. History lives only on authoritative shards, so
// management and context state ask exactly those: a joining shard owns
// nothing yet (and a failed join leaves unreachable imports on it), a
// gone shard owns nothing any more. A decision's provenance record and
// spans stay in the ring of the shard that executed it whatever that
// shard's lifecycle state is today, so explain and traces ask every
// tracked shard. An open or a close must reach every shard that serves
// decisions now or may later — joining and syncing shards included, or
// one between admission and cutover is missed by both the queue and the
// join-time sync.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"msod/internal/server"
)

// shardSet selects tracked shards by lifecycle state.
type shardSet func(ShardState) bool

var (
	// tracked is every shard in the topology, whatever its state.
	tracked shardSet = func(ShardState) bool { return true }
	// authoritative is the shards that own ring ranges, and so history.
	authoritative shardSet = ShardState.Authoritative
	// serving is every shard that serves decisions now or may later.
	serving shardSet = func(s ShardState) bool { return s != ShardGone }
)

// shards lists the tracked shards in the set, sorted.
func (g *Gateway) shards(in shardSet) []string {
	g.mu.RLock()
	out := make([]string, 0, len(g.states))
	for id, st := range g.states {
		if in(st) {
			out = append(out, id)
		}
	}
	g.mu.RUnlock()
	sort.Strings(out)
	return out
}

// requireUp is the all-Up precondition of a fan-out whose answer is
// only true of the whole set: it reports whether every shard is Up, and
// otherwise writes the fail-closed 503 naming the first Down shard,
// what needed it and why a partial answer would mislead. It races with
// failures during the fan-out itself, which is why every caller also
// handles per-shard errors afterwards.
func (g *Gateway) requireUp(w http.ResponseWriter, shards []string, what, why string) bool {
	if len(shards) == 0 {
		errorJSON(w, http.StatusServiceUnavailable, "no shards in ring")
		return false
	}
	for _, s := range shards {
		if !g.checker.Up(s) {
			g.metrics.unavailable.Add(1)
			errorJSON(w, http.StatusServiceUnavailable,
				fmt.Sprintf("shard %s is down; %s requires the full cluster (%s)", s, what, why))
			return false
		}
	}
	return true
}

// shardResult is one shard's answer to a scatter. err is nil, a
// deliberate answer from the shard (api is then set: the shard is
// alive and said no) or a transport failure (api is nil: the shard did
// not answer, and the checker has been told).
type shardResult[T any] struct {
	shard string
	val   T
	err   error
	api   *server.APIError
}

// scatter calls fn once per shard, concurrently, and returns the
// results in the order of shards. Every call runs under one deadline:
// the caller's context bounded by cfg.Timeout, so a caller that hangs
// up aborts the in-flight calls, and several slow shards cost one
// timeout, not their sum. Each transport failure is reported to the
// checker — except when the caller's own context ended, which says
// nothing about the shard.
func scatter[T any](ctx context.Context, g *Gateway, shards []string, fn func(context.Context, string, *server.Client) (T, error)) []shardResult[T] {
	results := make([]shardResult[T], len(shards))
	fanCtx, cancel := context.WithTimeout(ctx, g.cfg.Timeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(res *shardResult[T], s string) {
			defer wg.Done()
			res.shard = s
			c, ok := g.client(s)
			if !ok {
				// Removed from the topology since the set was chosen.
				res.err = fmt.Errorf("shard %s left the topology", s)
				return
			}
			res.val, res.err = fn(fanCtx, s, c)
			if res.err != nil && !errors.As(res.err, &res.api) && ctx.Err() == nil {
				g.checker.ReportFailure(s, res.err)
			}
		}(&results[i], s)
	}
	wg.Wait()
	return results
}

// lookup is the wording of a by-ID query whose ID does not reveal the
// shard holding the answer (explain, traces).
type lookup struct {
	what       string // names the query in the all-Up 503
	downWhy    string // why a Down shard makes any answer misleading
	incomplete string // opens the 502, before the shard that did not answer
	unproven   string // closes the 502: what the silence leaves unproven
	notFound   string // the 404, once every shard has answered "not here"
}

// scatterLookup asks every tracked shard and returns the shards that
// hold an answer, in shard order. With none it writes the refusal and
// returns nil: misses (404) from every shard are a proven 404; a shard
// that did not answer leaves absence unproven, so the query fails
// closed with a 502 rather than a confident not-found; otherwise the
// first deliberate non-404 refusal is forwarded.
func scatterLookup[T any](g *Gateway, w http.ResponseWriter, r *http.Request, q lookup, fn func(context.Context, string, *server.Client) (T, error)) []shardResult[T] {
	shards := g.shards(tracked)
	if !g.requireUp(w, shards, q.what, q.downWhy) {
		return nil
	}
	var hits []shardResult[T]
	var transport, deliberate *shardResult[T]
	results := scatter(r.Context(), g, shards, fn)
	for i := range results {
		switch res := &results[i]; {
		case res.err == nil:
			hits = append(hits, *res)
		case res.api == nil:
			if transport == nil {
				transport = res
			}
		case res.api.Status != http.StatusNotFound && deliberate == nil:
			deliberate = res
		}
	}
	switch {
	case len(hits) > 0:
	case transport != nil:
		g.metrics.unavailable.Add(1)
		errorJSON(w, http.StatusBadGateway,
			fmt.Sprintf("%s (shard %s: %v); %s", q.incomplete, transport.shard, transport.err, q.unproven))
	case deliberate != nil:
		errorJSON(w, deliberate.api.Status, fmt.Sprintf("shard %s: %s", deliberate.shard, deliberate.api.Message))
	default:
		errorJSON(w, http.StatusNotFound, q.notFound)
	}
	return hits
}
