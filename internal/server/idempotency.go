package server

import (
	"encoding/binary"
	"encoding/hex"
	"strings"
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
//
// A committed response is kept packed (packAnswer): one string, sized
// exactly, that starts with its ID, which is also the entry's key. The
// response the executing request encoded holds substrings of the
// request's one decoded string, so keeping it would keep the whole
// request, target and context included, for as long as the ID is
// cached.
type idemCache struct {
	mu sync.Mutex
	// entries maps an ID to its committed response, packed, or to ""
	// while it is in flight.
	entries map[string]string
	// settled is broadcast each time an in-flight ID resolves; the
	// requests waiting on one look again.
	settled sync.Cond
	// order holds the committed IDs, so the oldest is the one evicted;
	// in-flight entries are not in it and are never evicted.
	order ring.FIFO[string]
}

func newIdemCache(max int) *idemCache {
	c := &idemCache{entries: make(map[string]string), order: ring.NewFIFO[string](max)}
	c.settled.L = &c.mu
	return c
}

// begin claims an ID. It returns (packed, true) when a committed
// response must be replayed — waiting out a concurrent in-flight
// attempt if necessary — or ("", false) when the caller owns execution
// and must call finish exactly once.
func (c *idemCache) begin(id string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		packed, ok := c.entries[id]
		if !ok {
			c.entries[id] = ""
			return "", false
		}
		if packed != "" {
			return packed, true
		}
		// In flight. If that attempt fails before committing, the ID is
		// released and the first waiter to look again claims the
		// re-execution; the others wait on it in turn.
		c.settled.Wait()
	}
}

// finish resolves an ID begin handed to the caller: a committed
// response, packed under the ID (packAnswer), is cached for replay; ""
// (the decision errored, nothing committed) releases the ID so a retry
// re-executes.
func (c *idemCache) finish(id, packed string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[id]; !ok {
		return
	}
	if packed != "" {
		// Assigning to the in-flight entry replaces its key too, which
		// points into the request's text, with the packed string's own
		// copy of the ID.
		key := packed[:len(id)]
		c.entries[key] = packed
		if oldest, evicted := c.order.Push(key); evicted {
			delete(c.entries, oldest)
		}
	} else {
		delete(c.entries, id)
	}
	c.settled.Broadcast()
}

// The flags byte of a packed answer.
const (
	packedAllowed   = 1 << iota
	packedRequestID // RequestID is the ID the answer is packed under
	packedRawTrace  // the trace ID is 16 bytes, its 32 lowercase hex digits decoded
)

// packAnswer returns id followed by resp in one string of exactly its
// size, which shares nothing with resp's strings:
//
//	id | flags | phase | recorded purged matchedPolicies |
//	traceID | requestID | user | reason | roles | activated | closed
//
// The counts are uvarints. A text is its length as a uvarint and its
// bytes, a list its length and its texts. The trace ID is 16 raw bytes
// under packedRawTrace, a text otherwise. The request ID is left out
// under packedRequestID. unpackAnswer reads it back into a response
// that WriteJSON encodes byte for byte as it encodes resp; an empty
// list comes back nil, which the encoder omits as it omits an empty
// one.
func packAnswer(id string, resp *DecisionResponse) string {
	var flags byte
	if resp.Allowed {
		flags |= packedAllowed
	}
	if resp.RequestID == id {
		flags |= packedRequestID
	}
	var raw [16]byte
	if rawTraceID(&raw, resp.TraceID) {
		flags |= packedRawTrace
	}
	// The first pass counts the bytes, the second writes them.
	var p packer
	p.answer(id, flags, &raw, resp)
	var b strings.Builder
	b.Grow(p.n)
	p.b = &b
	p.answer(id, flags, &raw, resp)
	return b.String()
}

// answer is packAnswer's layout, field by field.
func (p *packer) answer(id string, flags byte, raw *[16]byte, resp *DecisionResponse) {
	p.bytes(id)
	p.byte(flags)
	p.text(resp.Phase)
	p.uvarint(resp.Recorded)
	p.uvarint(resp.Purged)
	p.uvarint(resp.MatchedPolicies)
	if flags&packedRawTrace != 0 {
		p.bytes(string(raw[:]))
	} else {
		p.text(resp.TraceID)
	}
	if flags&packedRequestID == 0 {
		p.text(resp.RequestID)
	}
	p.text(resp.User)
	p.text(resp.Reason)
	p.list(resp.Roles)
	p.list(resp.Activated)
	p.list(resp.Closed)
}

// unpackAnswer reads back the response packAnswer packed under the ID
// that is packed's first idLen bytes. Its strings are substrings of
// packed, but for a raw trace ID, which is rendered again.
func unpackAnswer(packed string, idLen int) DecisionResponse {
	u := unpacker{packed[idLen:]}
	flags := u.next(1)[0]
	resp := DecisionResponse{
		Allowed:         flags&packedAllowed != 0,
		Phase:           u.text(),
		Recorded:        u.count(),
		Purged:          u.count(),
		MatchedPolicies: u.count(),
	}
	if flags&packedRawTrace != 0 {
		resp.TraceID = hex.EncodeToString([]byte(u.next(16)))
	} else {
		resp.TraceID = u.text()
	}
	if flags&packedRequestID != 0 {
		resp.RequestID = packed[:idLen]
	} else {
		resp.RequestID = u.text()
	}
	resp.User = u.text()
	resp.Reason = u.text()
	resp.Roles = u.list()
	resp.Activated = u.list()
	resp.Closed = u.list()
	return resp
}

// rawTraceID decodes id into raw when it is 32 lowercase hex digits,
// the only spelling hex.EncodeToString gives back.
func rawTraceID(raw *[16]byte, id string) bool {
	if len(id) != 2*len(raw) {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			return false
		}
		raw[i/2] = raw[i/2]<<4 | c
	}
	return true
}

// packer writes a packed answer's fields into b, or with b nil only
// counts their bytes in n.
type packer struct {
	b *strings.Builder
	n int
}

func (p *packer) bytes(s string) {
	if p.b == nil {
		p.n += len(s)
	} else {
		p.b.WriteString(s)
	}
}

func (p *packer) byte(c byte) {
	if p.b == nil {
		p.n++
	} else {
		p.b.WriteByte(c)
	}
}

func (p *packer) uvarint(n int) {
	var buf [binary.MaxVarintLen64]byte
	p.bytes(string(buf[:binary.PutUvarint(buf[:], uint64(n))]))
}

func (p *packer) text(s string) {
	p.uvarint(len(s))
	p.bytes(s)
}

func (p *packer) list(list []string) {
	p.uvarint(len(list))
	for _, s := range list {
		p.text(s)
	}
}

// unpacker reads a packed answer's fields in order. It trusts what it
// reads: packAnswer wrote it.
type unpacker struct{ s string }

func (u *unpacker) next(n int) string {
	s := u.s[:n]
	u.s = u.s[n:]
	return s
}

func (u *unpacker) count() int {
	n, size := binary.Uvarint([]byte(u.s[:min(len(u.s), binary.MaxVarintLen64)]))
	u.s = u.s[size:]
	return int(n)
}

func (u *unpacker) text() string { return u.next(u.count()) }

func (u *unpacker) list() []string {
	n := u.count()
	if n == 0 {
		return nil
	}
	list := make([]string, n)
	for i := range list {
		list[i] = u.text()
	}
	return list
}
