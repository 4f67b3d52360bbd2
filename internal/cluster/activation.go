package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"msod/internal/server"
)

// Cluster-consistent context activation. §4.2 step 3's "has this bound
// context instance started?" is per-store state, but the cluster
// partitions users across stores: the shard that commits a FirstStep
// opening record activates the instance locally, while every other
// shard would still answer "not started" and skip recording its own
// users' operations in the running instance — under-counted retained
// ADI, the one failure mode MSoD must never have. The gateway closes
// the gap at the only place that sees both the grant and the topology:
//
//   - Every decision whose response names Activated instances queues
//     the activation for every serving peer shard (enqueueLifecycle), in
//     the same per-shard log as closes, and is acked to the PEP at once:
//     each peer applies it before the next request the gateway sends it,
//     and every request that can read the instance there is one. The
//     activation stays queued until the peer's own answer acknowledges
//     it, and a peer leaves Down only once it has (probe). An activation
//     that cannot be queued withholds the grant fail-closed; the
//     answering shard's committed record and any activations queued for
//     other peers are deny-safe (extra history only ever adds denials),
//     and the PEP's retry re-converges.
//
//   - The queue lives in the gateway's memory; the shards' stores are the
//     durable copy. A gateway that stops with activations queued loses
//     them, so a gateway syncs every serving shard with the union of the
//     authoritative shards' running instances (syncActivations) before it
//     routes its first decision (bootSync).
//
//   - A joining shard missed every activation from before it was
//     admitted, so the join handoff seeds it with the same union before
//     cutover. Activations alone cannot be streamed: on the
//     first-stepper's own shard the instance runs because of the real
//     opening record, not an activation.
//
//   - A management user or age purge can take the last record of a
//     running instance off one shard, or its activation, while another
//     shard still holds some of the instance: the first would then grant
//     its users' steps unrecorded. So every such purge is followed by the
//     same sync over every authoritative shard (handleManagement).
//
// All paths are idempotent (the shard skips instances already active)
// and deny-safe (a spurious activation can only cause over-recording).

// bootSync runs syncActivations over every serving shard once, before
// the first recording decision this gateway routes: the activations the
// gateway that ran before it had queued but not delivered are in no
// outbox any more, but each started instance is still running on the
// shard that granted its FirstStep. A shard's request that fails in
// transport is retried as a decision's is (retried). Until a sync
// succeeds every caller gets its error, and the next caller tries again;
// callers wait for one another rather than sync twice.
func (g *Gateway) bootSync(ctx context.Context) error {
	g.bootMu.Lock()
	defer g.bootMu.Unlock()
	if g.booted.Load() {
		return nil
	}
	if err := g.syncActivations(ctx, g.shards(serving)); err != nil {
		return err
	}
	g.booted.Store(true)
	return nil
}

// syncActivations activates on every target shard each context
// instance the authoritative shards consider running, so FirstStep-gated
// recording holds there from the next decision. The union is over full
// instance lists (retained history or activation): over-activation is
// deny-safe, and filtering here would need policy knowledge the gateway
// deliberately does not have. An instance that has been closed has no
// history left anywhere (closes.go), so the union is the instances
// still open, not every instance there ever was. Opens and closes are
// excluded while it is taken and applied (g.closing, as for a handoff
// copy): an instance closed in between would be re-activated on a target
// after the target had already been told to close it.
func (g *Gateway) syncActivations(ctx context.Context, targets []string) error {
	g.closing.Lock()
	defer g.closing.Unlock()
	union := make(map[string]bool)
	for _, res := range scatter(ctx, g, g.shards(authoritative), func(ctx context.Context, _ string, c *server.Client) ([]string, error) {
		return retried(ctx, g, func() ([]string, error) { return c.ActiveContexts(ctx) })
	}) {
		if res.err != nil {
			return fmt.Errorf("shard %s active contexts: %w", res.shard, res.err)
		}
		for _, inst := range res.val {
			union[inst] = true
		}
	}
	if len(union) == 0 {
		return nil
	}
	all := make([]string, 0, len(union))
	for inst := range union {
		all = append(all, inst)
	}
	sort.Strings(all)
	for _, res := range scatter(ctx, g, targets, func(ctx context.Context, _ string, c *server.Client) (server.ActivationResponse, error) {
		return retried(ctx, g, func() (server.ActivationResponse, error) { return c.Activate(ctx, all) })
	}) {
		if res.err != nil {
			return fmt.Errorf("activate on %s: %w", res.shard, res.err)
		}
	}
	return nil
}

// retried calls fn under the decision hop's rule (handleRouted): a
// transport error is tried again, up to Retries times, after a jittered
// backoff that starts at RetryBackoff and doubles, while ctx lasts; a
// shard's deliberate answer (*server.APIError) is returned at once. The
// sync's requests are safe to repeat: a GET, and an activation the shard
// skips when the instance is active already.
func retried[T any](ctx context.Context, g *Gateway, fn func() (T, error)) (T, error) {
	backoff := g.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		v, err := fn()
		var apiErr *server.APIError
		if err == nil || errors.As(err, &apiErr) || attempt == g.cfg.Retries || !sleepContext(ctx, jitterBackoff(backoff)) {
			return v, err
		}
		backoff *= 2
		g.metrics.retries.Add(1)
	}
}
