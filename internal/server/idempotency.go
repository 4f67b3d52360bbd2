package server

import (
	"encoding/binary"
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
// answer the executing request wrote is views of the request's one
// decoded string and of the engine's decision, so keeping it would keep
// the whole request, target and context included, for as long as the
// ID is cached. A replay is written from the packed string by the
// writer of the first answer (writeAnswer).
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

// packAnswer returns id followed by a, an answer of a decision, in one
// string of exactly its size, which shares nothing with a's strings:
//
//	id | flags | phase | recorded purged matchedPolicies |
//	traceID | requestID | user | reason | roles | activated | closed
//
// The counts are uvarints. A text is its length as a uvarint and its
// bytes, a list its length and its texts; a bound name is packed as its
// text. The trace ID is 16 raw bytes under packedRawTrace, a text
// otherwise. The request ID is left out under packedRequestID.
// packedAnswer reads it back into an answer that writeAnswer writes
// byte for byte as it writes a.
func packAnswer(id string, a *answer) string {
	var flags byte
	if a.allowed {
		flags |= packedAllowed
	}
	if a.requestID == id {
		flags |= packedRequestID
	}
	var raw [16]byte
	if rawTraceID(&raw, a.traceID) {
		flags |= packedRawTrace
	}
	// The first pass counts the bytes, the second writes them.
	var p packer
	p.answer(id, flags, &raw, a)
	var b strings.Builder
	b.Grow(p.n)
	p.b = &b
	p.answer(id, flags, &raw, a)
	return b.String()
}

// answer is packAnswer's layout, field by field.
func (p *packer) answer(id string, flags byte, raw *[16]byte, a *answer) {
	p.bytes(id)
	p.byte(flags)
	p.text(a.phase)
	p.uvarint(a.recorded)
	p.uvarint(a.purged)
	p.uvarint(a.matched)
	if flags&packedRawTrace != 0 {
		p.bytes(string(raw[:]))
	} else {
		p.text(a.traceID)
	}
	if flags&packedRequestID == 0 {
		p.text(a.requestID)
	}
	p.text(a.user)
	p.text(a.reason)
	p.list(&a.roles)
	p.list(&a.activated)
	p.list(&a.closed)
}

// packedAnswer reads back the answer packAnswer packed under the ID that
// is packed's first idLen bytes. Its strings and lists are views of
// packed.
func packedAnswer(packed string, idLen int) answer {
	u := unpacker{packed[idLen:]}
	flags := u.next(1)[0]
	a := answer{
		allowed:  flags&packedAllowed != 0,
		phase:    u.text(),
		recorded: u.count(),
		purged:   u.count(),
		matched:  u.count(),
	}
	if a.rawTrace = flags&packedRawTrace != 0; a.rawTrace {
		a.traceID = u.next(16)
	} else {
		a.traceID = u.text()
	}
	if flags&packedRequestID != 0 {
		a.requestID = packed[:idLen]
	} else {
		a.requestID = u.text()
	}
	a.user = u.text()
	a.reason = u.text()
	a.roles = u.list()
	a.activated = u.list()
	a.closed = u.list()
	return a
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

func (p *packer) list(l *answerList) {
	p.uvarint(l.len())
	for _, r := range l.roles {
		p.text(string(r))
	}
	for _, n := range l.names {
		p.uvarint(n.TextLen())
		for i := 0; i < n.Len(); i++ {
			if i > 0 {
				p.bytes(", ")
			}
			c := n.At(i)
			p.bytes(c.Type)
			p.byte('=')
			p.bytes(c.Value)
		}
	}
	p.bytes(l.packed)
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

// list reads a list as a view of its texts.
func (u *unpacker) list() answerList {
	n := u.count()
	rest := u.s
	for i := 0; i < n; i++ {
		u.text()
	}
	return answerList{packed: rest[:len(rest)-len(u.s)], n: n}
}
