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

// idemEntry tracks one RequestID: in flight until done is closed, then
// either a committed response to replay (ok) or a failed attempt whose
// retry may safely re-execute (no side effects happened).
type idemEntry struct {
	done chan struct{}
	resp DecisionResponse
	ok   bool
}

// idemCache deduplicates decision requests by RequestID. A decision is
// not idempotent — a grant commits retained-ADI records and last-step
// purges — so a client retrying after a transport timeout cannot know
// whether the commit happened. The cache makes the retry safe: the
// first arrival of an ID executes, every later arrival waits for it
// and replays the committed response instead of re-deciding.
type idemCache struct {
	mu      sync.Mutex
	entries map[string]*idemEntry
	// order holds the committed IDs, so the oldest is the one evicted;
	// in-flight entries are not in it and are never evicted.
	order ring.FIFO[string]
}

func newIdemCache(max int) *idemCache {
	return &idemCache{entries: make(map[string]*idemEntry), order: ring.NewFIFO[string](max)}
}

// begin claims an ID. It returns (resp, true) when a committed response
// must be replayed — waiting out a concurrent in-flight attempt if
// necessary — or (zero, false) when the caller owns execution and must
// call finish exactly once.
func (c *idemCache) begin(id string) (DecisionResponse, bool) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[id]; ok {
			c.mu.Unlock()
			<-e.done
			if e.ok {
				return e.resp, true
			}
			// The attempt we waited on failed before committing;
			// loop to claim ownership of the re-execution.
			continue
		}
		e := &idemEntry{done: make(chan struct{})}
		c.entries[id] = e
		c.mu.Unlock()
		return DecisionResponse{}, false
	}
}

// finish resolves an ID begin handed to the caller: ok caches the
// committed response for replay; !ok (the decision errored, nothing
// committed) releases the ID so a retry re-executes.
func (c *idemCache) finish(id string, resp DecisionResponse, ok bool) {
	c.mu.Lock()
	e := c.entries[id]
	if e == nil {
		c.mu.Unlock()
		return
	}
	e.resp, e.ok = resp, ok
	if ok {
		if oldest, evicted := c.order.Push(id); evicted {
			delete(c.entries, oldest)
		}
	} else {
		delete(c.entries, id)
	}
	c.mu.Unlock()
	close(e.done)
}
