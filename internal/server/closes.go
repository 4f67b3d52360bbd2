package server

import (
	"strings"
	"sync"
	"sync/atomic"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/ring"
)

// The lifecycle of a context instance across shards. §4.2 step 3 asks
// whether a bound context instance has started, and step 7 purges its
// retained ADI when a policy's last step is granted; a user-sharded
// cluster holds that instance in slices, one per shard, and the shard
// that granted the first or the last step can start or end only its own
// slice. Its answer therefore names what it started
// (DecisionResponse.Activated) and what it closed (DecisionResponse.Closed),
// and the gateway tells every other shard — not with a post of its own,
// but on the requests it already sends them. Shard B has to know only
// before the next request that reads B's retained ADI, and every such
// request passes the gateway's Client for B: so the gateway queues the
// open or close in B's Outbox, one ordered log of both, the Client
// attaches every pending entry to every request it sends B as one header,
// and B applies them in order before the handler runs (Server.ServeHTTP).
// A request sent after the step was acknowledged either carries the entry
// or follows a request whose answer settled it; it cannot overtake it.
//
// Opens and closes share the carrier and the order — an instance name
// used again is opened, closed and opened again on every shard in the
// order one PDP saw — but not the failure rule, because losing one costs
// the opposite way:
//
//   - At most once, both. An entry rides every request until one settles
//     it, a replayed answer (idempotency.go) queues it again, and an open
//     is carried again after a failed request, so B sees duplicates; it
//     applies each entry once by its kind and the requestID of the step
//     that produced it, remembered in a bounded ring. A second
//     application is not what one PDP does: the instance may have been
//     closed or re-opened in between, and a second close would delete
//     live history, a second open start again an instance that has ended.
//   - A close is never re-sent. A close whose carrying request failed in
//     transport may or may not have been applied; it is dropped and
//     counted: a lost close leaves B with records of a finished instance
//     (extra denials at worst, and only if the instance name is used
//     again), a late one is a second application waiting to happen once
//     the ring has forgotten it.
//   - An open is never dropped. A lost open is a false grant: B would not
//     record its users' steps in a running instance. So an open stays
//     pending until B's own answer acknowledges it (ActivationAckHeader),
//     which B sets only once every open its request carried is applied —
//     not on any HTTP answer, which something in between can give. A full
//     outbox makes room by dropping closes, never opens; an open that does
//     not fit is refused, and the gateway withholds the grant that
//     started the instance.
//
// A close rides the -handoff opt-in (WithHandoff): like a handoff release,
// it deletes history on the gateway's word alone, and a shard without
// the opt-in ignores it. An open can only make a shard record more
// (deny-safe), so every shard applies it, as it serves
// POST /v1/ctx/activation.

// CloseHeader carries the pending opens and closes of the shard a
// request is sent to, oldest first, separated by ';'. A close is the
// requestID of the granted last step followed by the bound context
// instances it terminated, separated by '|'; an open is the same for a
// first step and the instances it started, behind a leading '|' — an
// empty first field, which no close has (EncodeClose refuses an empty
// requestID), so a shard that predates opens skips one as malformed and
// does not acknowledge it. Every field is percent-escaped
// (appendEscaped).
const CloseHeader = "Msod-Close"

// ActivationAckHeader is set on the answer to a request that carried
// opens, once the shard has applied every one of them (now, or on an
// earlier request). Its absence leaves them pending at the gateway.
const ActivationAckHeader = "Msod-Activation-Ack"

// activationAck is the ActivationAckHeader value, shared by every answer
// that carries it.
var activationAck = []string{"1"}

// entryMax bounds one encoded open or close, far above any the gateway
// mints an ID for and far below outboxMax.
const entryMax = 1024

// EncodeClose renders one close for Outbox.Enqueue: the last step's
// requestID and the instances it terminated. It reports false for a
// close that cannot be carried — no identity to apply it once by,
// nothing to close, or an encoding past entryMax (a PEP chose a
// requestID the size of a request body).
func EncodeClose(requestID string, contexts []string) (string, bool) {
	return encodeEntry(false, requestID, contexts)
}

// EncodeActivation renders one open for Outbox.Enqueue: the first step's
// requestID and the instances it started. It refuses what EncodeClose
// refuses.
func EncodeActivation(requestID string, contexts []string) (string, bool) {
	return encodeEntry(true, requestID, contexts)
}

func encodeEntry(open bool, requestID string, contexts []string) (string, bool) {
	if requestID == "" || len(contexts) == 0 {
		return "", false
	}
	n := 1 + len(requestID)
	for _, c := range contexts {
		n += 1 + len(c)
	}
	b := make([]byte, 0, n)
	if open {
		b = append(b, '|')
	}
	b = appendEscaped(b, requestID, true)
	for _, c := range contexts {
		b = appendEscaped(append(b, '|'), c, false)
	}
	if len(b) > entryMax {
		return "", false
	}
	return string(b), true
}

// isOpen reports whether an encoded entry is an open.
func isOpen(entry string) bool { return strings.HasPrefix(entry, "|") }

// appendEscaped appends s with every byte the header cannot carry as
// itself written %XX: the two separators and the escape, what net/http
// refuses in a header value (control characters) or may not preserve
// (bytes outside ASCII), and — in a requestID, which a PEP chooses —
// the spaces a header value loses at its ends. Unlike net/url's
// escapers it leaves alone the '=', ',' and inner spaces every context
// name has, so an ordinary entry is its own text and the shard parses
// it without copying.
func appendEscaped(b []byte, s string, spaces bool) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		if c := s[i]; escaped(c, spaces) {
			b = append(b, '%', hex[c>>4], hex[c&0xf])
		} else {
			b = append(b, c)
		}
	}
	return b
}

// escaped reports whether appendEscaped writes c as %XX.
func escaped(c byte, spaces bool) bool {
	return c == '%' || c == ';' || c == '|' || c < 0x20 || c >= 0x7f || (spaces && c == ' ')
}

// RequestIDFits reports whether an open or close under requestID fits
// one entry (entryMax) beside the shortest instance an entry can name,
// "T=v": its escaped text, the open's leading '|' and the separator. A
// gateway refuses a recording request under any other requestID before
// a shard sees it, since the shard would commit a step the gateway
// could then not carry to the others.
func RequestIDFits(requestID string) bool {
	n := len("|") + len("|") + len("T=v") + len(requestID)
	for i := 0; i < len(requestID); i++ {
		if escaped(requestID[i], true) {
			n += len("XX")
		}
	}
	return n <= entryMax
}

// unescape undoes appendEscaped. A field without an escape — every
// field of an ordinary entry — is returned as it is.
func unescape(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 {
		return s, true
	}
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b = append(b, s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", false
		}
		hi, lo := unhex(s[i+1]), unhex(s[i+2])
		if hi < 0 || lo < 0 {
			return "", false
		}
		b = append(b, byte(hi<<4|lo))
		i += 2
	}
	return string(b), true
}

func unhex(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// CloseStats counts what became of the closes a gateway owed its
// shards, over all of their outboxes. Every close given up is in Lost,
// Overflowed or Unsendable; Lost can count a close that did arrive (the
// same close was on another request that was answered), never one that
// is still pending. Opens are not counted here: none is ever given up.
type CloseStats struct {
	// Enqueued counts closes queued, once per peer shard.
	Enqueued atomic.Int64
	// Lost counts closes dropped because the request carrying them failed
	// in transport, or was answered without the acknowledgement its opens
	// asked for: applied or not, they are not sent again.
	Lost atomic.Int64
	// Overflowed counts closes dropped, oldest first, from an outbox that
	// was full, and closes refused by one full of opens: the shard is
	// answering nothing (Down, or never asked).
	Overflowed atomic.Int64
	// Unsendable counts closes EncodeClose refused, per shard they were
	// owed to; the gateway adds to it, no outbox does.
	Unsendable atomic.Int64
}

// Outbox holds the opens and closes still to be told to one shard, oldest
// first, in one log. The gateway enqueues; the shard's Client
// (Client.Outbox) attaches what is pending to every request and settles
// it when the request ends. Safe for concurrent use.
type Outbox struct {
	stats *CloseStats

	mu      sync.Mutex
	entries []outboxEntry
	size    int // bytes of every pending entry, against outboxMax
	opens   int // bytes of the pending opens, which nothing drops
	// next is the sequence number the next entry gets. A request
	// remembers the sequence its header ended at, so settling it touches
	// exactly what it carried however the outbox moved meanwhile.
	next uint64
	// header is the CloseHeader value carrying all of entries, built once
	// per change of them; nil when there is none or it is stale.
	header []string
}

// outboxEntry is one pending open or close, as EncodeActivation or
// EncodeClose rendered it.
type outboxEntry struct {
	seq  uint64
	open bool
	text string
}

// NewOutbox returns an empty outbox counting into stats.
func NewOutbox(stats *CloseStats) *Outbox {
	return &Outbox{stats: stats}
}

// Enqueue queues one encoded open or close and reports whether it did.
// Past outboxMax bytes pending, the oldest closes are dropped to make
// room, and counted. An open is never dropped, so when the pending opens
// leave no room the new entry is refused: a close is counted as
// overflowed, an open is its caller's to withhold the grant for.
func (o *Outbox) Enqueue(entry string) bool {
	open := isOpen(entry)
	if !open {
		o.stats.Enqueued.Add(1)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.opens+len(entry) > outboxMax {
		if !open {
			o.stats.Overflowed.Add(1)
		}
		return false
	}
	if excess := o.size + len(entry) - outboxMax; excess > 0 {
		kept := o.entries[:0]
		for _, e := range o.entries {
			if excess > 0 && !e.open {
				excess -= len(e.text)
				o.size -= len(e.text)
				o.stats.Overflowed.Add(1)
				continue
			}
			kept = append(kept, e)
		}
		o.entries = o.shrink(kept)
	}
	o.entries = append(o.entries, outboxEntry{seq: o.next, open: open, text: entry})
	o.next++
	o.size += len(entry)
	if open {
		o.opens += len(entry)
	}
	o.header = nil
	return true
}

// shrink makes kept, a prefix-compacted copy of entries in the same
// array, the pending entries, letting go of the texts past it.
func (o *Outbox) shrink(kept []outboxEntry) []outboxEntry {
	clear(o.entries[len(kept):])
	o.header = nil
	return kept
}

// Pending reports how many opens and closes are waiting for a request to
// carry them.
func (o *Outbox) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.entries)
}

// Mark is the sequence number the next entry will get: every entry queued
// so far comes before it.
func (o *Outbox) Mark() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.next
}

// Unacknowledged reports how many opens queued before mark are still
// pending.
func (o *Outbox) Unacknowledged(mark uint64) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, e := range o.entries {
		if e.seq >= mark {
			break
		}
		if e.open {
			n++
		}
	}
	return n
}

// attach returns the header value carrying every pending entry, the
// sequence number it ends at and whether it carries an open, or nil when
// nothing is pending. The slice is shared by every request sent until the
// outbox changes; nobody writes to it.
func (o *Outbox) attach() ([]string, uint64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.entries) == 0 {
		return nil, 0, false
	}
	if o.header == nil {
		var b strings.Builder
		b.Grow(o.size + len(o.entries) - 1)
		for i, e := range o.entries {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(e.text)
		}
		o.header = []string{b.String()}
	}
	return o.header, o.next, o.opens > 0
}

// settle ends a request that carried the entries before sequence end.
// Whatever close of them is still pending is dropped — delivered if the
// shard answered, lost and counted if not (see Client.send for what
// counts as answered). An open is dropped only when the shard's answer
// acknowledged it (acked); otherwise the next request carries it again.
func (o *Outbox) settle(end uint64, answered, acked bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	kept := o.entries[:0]
	for i, e := range o.entries {
		if e.seq >= end {
			kept = append(kept, o.entries[i:]...)
			break
		}
		if e.open && !acked {
			kept = append(kept, e)
			continue
		}
		o.size -= len(e.text)
		if e.open {
			o.opens -= len(e.text)
		} else if !answered {
			o.stats.Lost.Add(1)
		}
	}
	if len(kept) != len(o.entries) {
		o.entries = o.shrink(kept)
	}
}

// appliedEntries remembers the opens and closes this shard has applied,
// newest appliedSize of them. The zero value is ready; the ring is made
// when the first entry arrives.
type appliedEntries struct {
	// mu also serialises application itself: of two requests carrying
	// the same entry, the second waits until the first has applied it.
	mu    sync.Mutex
	seen  map[appliedKey]struct{}
	order ring.FIFO[appliedKey]
}

// appliedKey names one entry: its kind and the requestID of the step
// that produced it. A decision that both starts and ends instances
// produces one of each under one requestID.
type appliedKey struct {
	open bool
	id   string
}

// applyCarried applies the opens and closes a request carries (its
// CloseHeader values, in order) and reports whether the answer
// acknowledges its opens: true when it carried at least one and every
// one is now applied. Closes are skipped on a shard without -handoff.
func (s *Server) applyCarried(headers []string) bool {
	a := &s.applied
	a.mu.Lock()
	defer a.mu.Unlock()
	opens, ack := false, true
	for _, header := range headers {
		for rest, more := header, true; more; {
			var entry string
			entry, rest, more = strings.Cut(rest, ";")
			open := isOpen(entry)
			if open {
				entry, opens = entry[1:], true
			} else if !s.handoff {
				continue
			}
			if !s.applyEntry(open, entry) && open {
				ack = false
			}
		}
	}
	return opens && ack
}

// applyEntry applies one open or close not applied before, each bound
// instance as an adi.OpActivate or adi.OpClose through pdp.PDP.Apply,
// and reports whether it is applied (now or before). The caller holds
// s.applied.mu.
//
// A close that does not parse is skipped: the gateway encodes what shards
// told it, and a close not applied is deny-safe; it is remembered, and a
// close a failed store write left unapplied is not tried again (the
// write latched read-only mode, as for any other write). An open that
// does not parse or does not apply is not remembered: it goes
// unacknowledged, and the next request that carries it tries again.
func (s *Server) applyEntry(open bool, entry string) bool {
	a := &s.applied
	field, contexts, ok := strings.Cut(entry, "|")
	if !ok {
		return false
	}
	id, ok := unescape(field)
	if !ok || id == "" {
		return false
	}
	key := appliedKey{open: open, id: id}
	if _, dup := a.seen[key]; dup {
		return true
	}
	applied := true
	for ctxs, more := contexts, true; more; {
		field, ctxs, more = strings.Cut(ctxs, "|")
		text, ok := unescape(field)
		if !ok {
			applied = false
			continue
		}
		bound, err := bctx.Parse(text)
		if err == nil {
			if open {
				_, err = s.backend.Load().pdp.Apply("started on another shard", adi.Op{Kind: adi.OpActivate, Bound: bound})
			} else {
				_, err = s.backend.Load().pdp.Apply("closed by last step "+id+" granted on another shard", adi.Op{Kind: adi.OpClose, Bound: bound})
			}
		}
		if err != nil {
			s.noteWriteFailure(err)
			applied = false
		}
	}
	if open && !applied {
		return false
	}
	if a.seen == nil {
		a.seen, a.order = make(map[appliedKey]struct{}), ring.NewFIFO[appliedKey](appliedSize)
	}
	// The header's string is the request's; the ring outlives it.
	key.id = strings.Clone(id)
	a.seen[key] = struct{}{}
	if oldest, evicted := a.order.Push(key); evicted {
		delete(a.seen, oldest)
	}
	if applied && !open {
		s.metrics.closesApplied.Add(1)
	}
	return applied
}
