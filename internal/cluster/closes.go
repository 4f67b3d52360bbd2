package cluster

import (
	"fmt"

	"msod/internal/server"
)

// Opening and closing a context instance cluster-wide. A granted
// FirstStep starts the instance on the shard that answered, a granted
// LastStep purges it there; the answer names what it started or closed,
// and every other serving shard holds its own users' slice of the same
// instance, which the paper's single PDP would have started or purged in
// the same step (§4.2 steps 3 and 7). They are told without a post of
// their own: the open or close is queued on each peer's server.Outbox,
// the peer's server.Client attaches what is pending to every request it
// sends — decisions, fan-outs, handoff copies, the health probe — and the
// shard applies it before its handler runs, at most once
// (internal/server/closes.go has the mechanism and why it is exact; the
// failure rules are the last row of the table in scatter.go).

// enqueueLifecycle queues the open of the instances a granted answer
// started and then the close of those it terminated, for every serving
// shard but the one that answered — a joining or syncing shard will hold
// history before it serves a decision. The caller has decided to forward
// the answer; only an open can stop it. An open that cannot be queued —
// no requestID to apply it once by, one too large to carry, or a peer
// whose outbox is full of opens it has not acknowledged — fails the call
// before any close is queued, and the caller withholds the grant: what
// was queued for the other peers is deny-safe, as is the answering
// shard's committed record. A close that cannot be sent at all is
// counted per peer it was owed to.
func (g *Gateway) enqueueLifecycle(answered, requestID string, activated, closed []string) error {
	// Shared with every other FirstStep and LastStep, exclusive of a
	// handoff copy and of an activation sync: an entry reaches donor and
	// target both before the copy or both after it (see stream).
	g.closing.RLock()
	defer g.closing.RUnlock()
	peers := g.shards(serving)
	if len(activated) > 0 {
		entry, sendable := server.EncodeActivation(requestID, activated)
		for _, peer := range peers {
			c, ok := g.client(peer)
			switch {
			case peer == answered || !ok:
			case !sendable:
				return fmt.Errorf("the activation cannot be carried to shard %s (no requestID, or too large)", peer)
			case !c.Outbox.Enqueue(entry):
				return fmt.Errorf("shard %s has a full outbox of activations it has not acknowledged", peer)
			}
		}
	}
	if len(closed) > 0 {
		entry, sendable := server.EncodeClose(requestID, closed)
		for _, peer := range peers {
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
	return nil
}
