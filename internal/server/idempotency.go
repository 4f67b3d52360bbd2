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
// A committed response is an idemEntry: the answer and its ID packed
// into one string of its own, sized exactly (packAnswer), and the
// answer's reason, kept as the string the answer
// already held. The answer the executing request wrote is views of the
// request's one decoded string and of the engine's decision, so keeping
// it would keep the whole request, target and context included, for as
// long as the ID is cached. The reason is never such a view: it is the
// PDP's RBAC constant, an MSoD denial's rendering or, for a denial
// repeated in a bound instance, the instance's one shared text, which
// every such entry then points at instead of copying. A replay is
// written from the entry by the writer of the first answer
// (writeAnswer).
//
// The entries themselves are the eviction order: one FIFO, made with
// the first commit, so a shard that is never sent a requestID keeps
// nothing. An ID is filed two ways (idemKey): one the gateway minted,
// 32 lowercase hex digits, under its 16 bytes; any other under its text.
// Either maps to its entry's slot in the FIFO, or to inFlight.
type idemCache struct {
	mu     sync.Mutex
	max    int
	minted map[[16]byte]int32
	text   map[string]int32
	// settled is broadcast each time an in-flight ID resolves; the
	// requests waiting on one look again.
	settled sync.Cond
	// order holds the committed entries, oldest first; in-flight IDs
	// have none, and are never evicted. The k-th commit is in slot
	// k % max, and commits counts them.
	order   ring.FIFO[idemEntry]
	commits int
}

// inFlight is the slot of an ID claimed and not yet resolved.
const inFlight = -1

// idemEntry is a committed answer: packed without its reason
// (packAnswer), and the reason.
type idemEntry struct {
	packed, reason string
}

// idemKey is an ID as the cache files it: a gateway-minted one by its
// 16 bytes (minted), any other by its text. The two never meet, so a
// text ID of 16 bytes is never taken for a minted ID those bytes spell,
// nor an uppercase spelling for its lowercase one.
type idemKey struct {
	raw    [16]byte
	minted bool
	text   string
}

func keyOf(id string) idemKey {
	var k idemKey
	if !rawID(&k.raw, id) {
		return idemKey{text: id}
	}
	k.minted = true
	return k
}

func newIdemCache(max int) *idemCache {
	c := &idemCache{max: max, minted: make(map[[16]byte]int32), text: make(map[string]int32)}
	c.settled.L = &c.mu
	return c
}

// slot looks k up.
func (c *idemCache) slot(k *idemKey) (int32, bool) {
	if k.minted {
		s, ok := c.minted[k.raw]
		return s, ok
	}
	s, ok := c.text[k.text]
	return s, ok
}

// file maps k to slot s. Filing a text key again replaces the key the
// map holds with k's text.
func (c *idemCache) file(k *idemKey, s int32) {
	if k.minted {
		c.minted[k.raw] = s
	} else {
		c.text[k.text] = s
	}
}

func (c *idemCache) drop(k *idemKey) {
	if k.minted {
		delete(c.minted, k.raw)
	} else {
		delete(c.text, k.text)
	}
}

// at returns the entry in slot s: the oldest held is commit
// commits − Len, in slot (commits − Len) % max.
func (c *idemCache) at(s int32) idemEntry {
	oldest := (c.commits - c.order.Len()) % c.max
	return c.order.At((int(s) - oldest + c.max) % c.max)
}

// begin claims an ID. It returns (entry, true) when a committed
// response must be replayed — waiting out a concurrent in-flight
// attempt if necessary — or (idemEntry{}, false) when the caller owns
// execution and must call finish exactly once.
func (c *idemCache) begin(id string) (idemEntry, bool) {
	k := keyOf(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		s, ok := c.slot(&k)
		if !ok {
			c.file(&k, inFlight)
			return idemEntry{}, false
		}
		if s != inFlight {
			return c.at(s), true
		}
		// In flight. If that attempt fails before committing, the ID is
		// released and the first waiter to look again claims the
		// re-execution; the others wait on it in turn.
		c.settled.Wait()
	}
}

// finish resolves an ID begin handed to the caller: a committed
// response, packed under the ID (packAnswer), is cached for replay; an
// empty entry (the decision errored, nothing committed) releases the ID
// so a retry re-executes.
func (c *idemCache) finish(id string, e idemEntry) {
	k := keyOf(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.slot(&k); !ok {
		return
	}
	if e.packed != "" {
		if c.order.Cap() == 0 {
			c.order = ring.NewFIFO[idemEntry](c.max)
		}
		s := int32(c.commits % c.max)
		c.commits++
		if oldest, evicted := c.order.Push(e); evicted {
			old := oldest.key()
			c.drop(&old)
		}
		// The key from the entry's own string: a text key filed in
		// flight points into the request's text.
		k = e.key()
		c.file(&k, s)
	} else {
		c.drop(&k)
	}
	c.settled.Broadcast()
}

// The flags byte of a packed answer.
const (
	packedAllowed   = 1 << iota
	packedRequestID // RequestID is the ID the answer is packed under
	packedRawTrace  // the trace ID is 16 bytes, its 32 lowercase hex digits decoded
	packedRawID     // the ID is 16 bytes, likewise (idemKey.minted)
)

// packAnswer returns a, an answer of a decision, as the entry cached
// under id: its reason, and the rest in one string of exactly its size,
// which shares nothing with a's strings:
//
//	flags | id | phase | recorded purged matchedPolicies |
//	traceID | requestID | user | roles | activated | closed
//
// The counts are uvarints. A text is its length as a uvarint and its
// bytes, a list its length and its texts; a bound name is packed as its
// text. The ID and the trace ID are each 16 raw bytes under
// packedRawID and packedRawTrace, a text otherwise. The request ID is
// left out under packedRequestID. idemEntry.answer reads it back into an
// answer that writeAnswer writes byte for byte as it writes a.
func packAnswer(id string, a *answer) idemEntry {
	k := keyOf(id)
	var flags byte
	if a.allowed {
		flags |= packedAllowed
	}
	if a.requestID == id {
		flags |= packedRequestID
	}
	if k.minted {
		flags |= packedRawID
	}
	var trace [16]byte
	if rawID(&trace, a.traceID) {
		flags |= packedRawTrace
	}
	// The first pass counts the bytes, the second writes them.
	var p packer
	p.answer(flags, &k, &trace, a)
	var b strings.Builder
	b.Grow(p.n)
	p.b = &b
	p.answer(flags, &k, &trace, a)
	return idemEntry{packed: b.String(), reason: a.reason}
}

// answer is packAnswer's layout, field by field.
func (p *packer) answer(flags byte, k *idemKey, trace *[16]byte, a *answer) {
	p.byte(flags)
	p.raw(flags&packedRawID != 0, &k.raw, k.text)
	p.text(a.phase)
	p.uvarint(a.recorded)
	p.uvarint(a.purged)
	p.uvarint(a.matched)
	p.raw(flags&packedRawTrace != 0, trace, a.traceID)
	if flags&packedRequestID == 0 {
		p.text(a.requestID)
	}
	p.text(a.user)
	p.list(&a.roles)
	p.list(&a.activated)
	p.list(&a.closed)
}

// raw packs an ID as its 16 bytes b when ok, else as its text.
func (p *packer) raw(ok bool, b *[16]byte, text string) {
	if ok {
		p.bytes(string(b[:]))
	} else {
		p.text(text)
	}
}

// key reads back the key e is filed under. A text key is a view of
// e.packed.
func (e *idemEntry) key() idemKey {
	u := unpacker{e.packed}
	flags, id := u.id()
	if flags&packedRawID == 0 {
		return idemKey{text: id}
	}
	k := idemKey{minted: true}
	copy(k.raw[:], id)
	return k
}

// answer reads back the answer packAnswer packed as e, retried under
// id, the ID's text: the ID packed under packedRequestID is written as
// id, which spells the bytes packed, since lowercase hex digits and the
// bytes they decode to map one to one. Its strings and lists are views
// of e's.
func (e *idemEntry) answer(id string) answer {
	u := unpacker{e.packed}
	flags, _ := u.id()
	a := answer{
		allowed:  flags&packedAllowed != 0,
		reason:   e.reason,
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
		a.requestID = id
	} else {
		a.requestID = u.text()
	}
	a.user = u.text()
	a.roles = u.list()
	a.activated = u.list()
	a.closed = u.list()
	return a
}

// rawID decodes id into raw when it is 32 lowercase hex digits, the
// only spelling hex.Encode gives: a trace ID, or a requestID the gateway
// minted.
func rawID(raw *[16]byte, id string) bool {
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

// id reads the flags byte and the ID after it: its 16 bytes under
// packedRawID, its text otherwise.
func (u *unpacker) id() (flags byte, id string) {
	if flags = u.next(1)[0]; flags&packedRawID != 0 {
		return flags, u.next(16)
	}
	return flags, u.text()
}

// list reads a list as a view of its texts.
func (u *unpacker) list() answerList {
	n := u.count()
	rest := u.s
	for i := 0; i < n; i++ {
		u.text()
	}
	return answerList{packed: rest[:len(rest)-len(u.s)], n: n}
}
