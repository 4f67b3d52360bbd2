package cluster

import (
	"context"
	"fmt"
	"slices"
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
//   - Every decision whose response names Activated instances is acked
//     to the PEP only after every tracked peer shard accepted the
//     activation (fanoutActivation). A failed fan-out withholds the
//     grant fail-closed; the answering shard's committed record and
//     any partial activations are deny-safe (extra history only ever adds
//     denials), and the PEP's retry re-converges.
//
//   - A joining shard missed every fan-out from before it was
//     admitted, so the join handoff seeds it with the union of the
//     authoritative shards' running instances (syncActivations) before
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

// fanoutActivation tells every peer shard the named context instances
// are now running: every tracked shard that may serve decisions now or
// later — everything except the answering shard and shards already
// gone. Joining and syncing shards are included deliberately: an
// activation that fires between their admission and cutover would
// otherwise be missed by both the fan-out and the join-time sync. The
// first failure is returned (the caller withholds the grant — partial
// activation is deny-safe but the PEP must not see the ack until the
// whole cluster agrees the instance started).
func (g *Gateway) fanoutActivation(ctx context.Context, answered string, contexts []string) error {
	peers := slices.DeleteFunc(g.shards(serving), func(id string) bool { return id == answered })
	for _, res := range scatter(ctx, g, peers, func(ctx context.Context, _ string, c *server.Client) (server.ActivationResponse, error) {
		return c.Activate(ctx, contexts)
	}) {
		if res.err != nil {
			return fmt.Errorf("shard %s: %w", res.shard, res.err)
		}
	}
	return nil
}

// syncActivations activates on every target shard each context
// instance the authoritative shards consider running, so FirstStep-gated
// recording holds there from the next decision. The union is over full
// instance lists (retained history or activation): over-activation is
// deny-safe, and filtering here would need policy knowledge the gateway
// deliberately does not have. An instance that has been closed has no
// history left anywhere (closes.go), so the union is the instances
// still open, not every instance there ever was. Closes are excluded
// while it is taken and applied (g.closing, as for a handoff copy): an
// instance closed in between would be re-activated on a target after
// the target had already been told to close it.
func (g *Gateway) syncActivations(ctx context.Context, targets []string) error {
	g.closing.Lock()
	defer g.closing.Unlock()
	union := make(map[string]bool)
	for _, res := range scatter(ctx, g, g.shards(authoritative), func(ctx context.Context, _ string, c *server.Client) ([]string, error) {
		return c.ActiveContexts(ctx)
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
		return c.Activate(ctx, all)
	}) {
		if res.err != nil {
			return fmt.Errorf("activate on %s: %w", res.shard, res.err)
		}
	}
	return nil
}
