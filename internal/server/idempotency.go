package server

import (
	"sync"

	"msod/internal/ring"
)

// idemCacheSize bounds the idempotency cache. Committed responses are
// evicted FIFO past this size, so the window in which a duplicate ID is
// detected covers the most recent decisions — far longer than any
// sane retry horizon — without unbounded growth.
const idemCacheSize = 4096

// appliedSize bounds the ring of applied opens and closes (closes.go).
// An entry arrives a second time as a duplicate carry, within one client
// timeout of the first, or because the step's answer was replayed — and a
// replay comes out of an idemCache of this size.
const appliedSize = idemCacheSize

// outboxMax bounds, in bytes of encoded opens and closes, what a gateway
// holds for one shard (Outbox) — and so the header one request carries,
// which must stay under the megabyte net/http reads of a request's
// headers. It is some four thousand entries under gateway-minted IDs. A
// shard that answers anything drains its outbox with that answer, so
// only a shard sent nothing for that long — Down, or idle between two
// health probes of a very busy cluster — gets near it; past it the
// oldest closes are dropped and counted, and an open that does not fit
// is refused.
const outboxMax = 256 << 10

// idemCache deduplicates decision requests by RequestID. A decision is
// not idempotent — a grant commits retained-ADI records and last-step
// purges — so a client retrying after a transport timeout cannot know
// whether the commit happened. The cache makes the retry safe: the
// first arrival of an ID executes, every later arrival waits for it
// and replays the committed response instead of re-deciding.
type idemCache struct {
	mu sync.Mutex
	// entries maps an ID to its committed response — the one the
	// executing request encoded — or to nil while it is in flight.
	entries map[string]*DecisionResponse
	// settled is broadcast each time an in-flight ID resolves; the
	// requests waiting on one look again.
	settled sync.Cond
	// order holds the committed IDs, so the oldest is the one evicted;
	// in-flight entries are not in it and are never evicted.
	order ring.FIFO[string]
}

func newIdemCache(max int) *idemCache {
	c := &idemCache{entries: make(map[string]*DecisionResponse), order: ring.NewFIFO[string](max)}
	c.settled.L = &c.mu
	return c
}

// begin claims an ID. It returns (resp, true) when a committed response
// must be replayed — waiting out a concurrent in-flight attempt if
// necessary — or (nil, false) when the caller owns execution and must
// call finish exactly once.
func (c *idemCache) begin(id string) (*DecisionResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		resp, ok := c.entries[id]
		if !ok {
			c.entries[id] = nil
			return nil, false
		}
		if resp != nil {
			return resp, true
		}
		// In flight. If that attempt fails before committing, the ID is
		// released and the first waiter to look again claims the
		// re-execution; the others wait on it in turn.
		c.settled.Wait()
	}
}

// finish resolves an ID begin handed to the caller: a committed response
// is cached for replay; nil (the decision errored, nothing committed)
// releases the ID so a retry re-executes. The response is the caller's
// to encode, never to change.
func (c *idemCache) finish(id string, resp *DecisionResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[id]; !ok {
		return
	}
	if resp != nil {
		c.entries[id] = resp
		if oldest, evicted := c.order.Push(id); evicted {
			delete(c.entries, oldest)
		}
	} else {
		delete(c.entries, id)
	}
	c.settled.Broadcast()
}
