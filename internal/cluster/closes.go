package cluster

import "msod/internal/server"

// Closing a context instance cluster-wide. A granted LastStep purges the
// instance on the shard that answered; its answer names what it closed,
// and every other serving shard holds its own users' records of the same
// instance, which the paper's single PDP would have purged in the same
// step (§4.2 step 7). They are told without a post of their own: the
// close is queued on each peer's server.Outbox, the peer's server.Client
// attaches what is pending to every request it sends — decisions, fan-outs,
// handoff copies, the health probe — and the shard applies it before its
// handler runs, at most once (internal/server/closes.go has the mechanism
// and why it is exact; the failure rule is the "close" row of the table in
// scatter.go).

// enqueueCloses queues the close of the instances a granted LastStep
// terminated, for every serving shard but the one that answered — the
// set an activation is fanned out to, for the same reason: a joining or
// syncing shard will hold history before it serves a decision. The
// caller has decided to forward the answer; nothing here can fail it.
// A close that cannot be sent at all (no requestID to apply it once by,
// or one too large to carry) is counted per peer it was owed to.
func (g *Gateway) enqueueCloses(answered, requestID string, closed []string) {
	entry, sendable := server.EncodeClose(requestID, closed)
	// Shared with every other LastStep, exclusive of a handoff copy: a
	// close reaches donor and target both before the copy or both after
	// it (see stream).
	g.closing.RLock()
	defer g.closing.RUnlock()
	for _, peer := range g.shards(serving) {
		c, ok := g.client(peer)
		switch {
		case peer == answered || !ok:
		case sendable:
			c.Outbox.Enqueue(entry)
		default:
			g.closes.Unsendable.Add(1)
		}
	}
}
