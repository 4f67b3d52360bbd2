package server

import (
	"strings"
	"sync"
	"sync/atomic"

	"msod/internal/bctx"
	"msod/internal/ring"
)

// Cluster-wide close of a context instance. §4.2 step 7 purges the
// retained ADI of a bound context instance when a policy's last step is
// granted; a user-sharded cluster holds that instance in slices, one per
// shard, and the shard that granted the last step can purge only its
// own. Its answer therefore names what it closed (DecisionResponse.Closed)
// and the gateway tells every other shard — not with a post of its own,
// but on the requests it already sends them. A close has to reach shard B
// only before the next request that reads B's retained ADI, and every
// such request passes the gateway's Client for B: so the gateway queues
// the close in B's Outbox, the Client attaches every pending close to
// every request it sends B as one header, and B applies them before the
// handler runs (Server.ServeHTTP). A request sent after the last step
// was acknowledged either carries the close or follows a request that
// did and was answered; it cannot overtake it.
//
// Two rules make that exact rather than merely eventual:
//
//   - At most once. The same close rides every request until one is
//     answered, so B sees duplicates, and a replayed last-step answer
//     (idempotency.go) queues it again; B applies a close once, by the
//     last step's requestID, remembered in a bounded ring. Applying it
//     twice is the one thing that is not deny-safe: the instance may
//     have been re-opened in between, and the second purge would delete
//     live history.
//   - Never re-sent. A close whose carrying request failed in transport
//     may or may not have been applied; it is dropped and counted, not
//     retried: a lost close leaves B with records of a finished instance
//     (extra denials at worst, and only if the instance name is used
//     again), a late one is a second application waiting to happen once
//     the ring has forgotten it.
//
// Opening an instance is the opposite case and stays a synchronous
// fan-out (activation.go): a lost activation is a false grant.
//
// The shard side rides the -handoff opt-in (WithHandoff): like a handoff
// release, a close deletes history on the gateway's word alone. A shard
// without it ignores the header.

// CloseHeader carries the pending closes of the shard a request is sent
// to: entries separated by ';', each the requestID of the granted last
// step followed by the bound context instances it terminated, separated
// by '|', every field percent-escaped (appendEscaped).
const CloseHeader = "Msod-Close"

// closeEntryMax bounds one encoded close, far above any the gateway
// mints an ID for and far below closeOutboxMax.
const closeEntryMax = 1024

// EncodeClose renders one close for Outbox.Enqueue: the last step's
// requestID and the instances it terminated. It reports false for a
// close that cannot be carried — no identity to apply it once by,
// nothing to close, or an encoding past closeEntryMax (a PEP chose a
// requestID the size of a request body).
func EncodeClose(requestID string, contexts []string) (string, bool) {
	if requestID == "" || len(contexts) == 0 {
		return "", false
	}
	n := len(requestID)
	for _, c := range contexts {
		n += 1 + len(c)
	}
	b := appendEscaped(make([]byte, 0, n), requestID, true)
	for _, c := range contexts {
		b = appendEscaped(append(b, '|'), c, false)
	}
	if len(b) > closeEntryMax {
		return "", false
	}
	return string(b), true
}

// appendEscaped appends s with every byte the header cannot carry as
// itself written %XX: the two separators and the escape, what net/http
// refuses in a header value (control characters) or may not preserve
// (bytes outside ASCII), and — in a requestID, which a PEP chooses —
// the spaces a header value loses at its ends. Unlike net/url's
// escapers it leaves alone the '=', ',' and inner spaces every context
// name has, so an ordinary close is its own text and the shard parses
// it without copying.
func appendEscaped(b []byte, s string, spaces bool) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '%' || c == ';' || c == '|' || c < 0x20 || c >= 0x7f || (spaces && c == ' '):
			b = append(b, '%', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return b
}

// unescape undoes appendEscaped. A field without an escape — every
// field of an ordinary close — is returned as it is.
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
// is still pending.
type CloseStats struct {
	// Enqueued counts closes queued, once per peer shard.
	Enqueued atomic.Int64
	// Lost counts closes dropped because the request carrying them failed
	// in transport: applied or not, they are not sent again.
	Lost atomic.Int64
	// Overflowed counts closes dropped, oldest first, from an outbox that
	// was full: the shard is answering nothing (Down, or never asked).
	Overflowed atomic.Int64
	// Unsendable counts closes EncodeClose refused, per shard they were
	// owed to; the gateway adds to it, no outbox does.
	Unsendable atomic.Int64
}

// Outbox holds the closes still to be told to one shard, oldest first.
// The gateway enqueues; the shard's Client (Client.Outbox) attaches what
// is pending to every request and settles it when the request ends.
// Safe for concurrent use.
type Outbox struct {
	stats *CloseStats

	mu      sync.Mutex
	entries []string // encoded closes (EncodeClose)
	size    int      // their bytes, against closeOutboxMax
	// first is the sequence number of entries[0]: a request remembers the
	// sequence its header ended at, so settling it drops exactly what it
	// carried however the outbox moved meanwhile.
	first uint64
	// header is the CloseHeader value carrying all of entries, built once
	// per change of them; nil when there is none or it is stale.
	header []string
}

// NewOutbox returns an empty outbox counting into stats.
func NewOutbox(stats *CloseStats) *Outbox {
	return &Outbox{stats: stats}
}

// Enqueue queues one encoded close. Past closeOutboxMax bytes pending,
// the oldest closes are dropped to make room, and counted.
func (o *Outbox) Enqueue(entry string) {
	o.stats.Enqueued.Add(1)
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for left := o.size; left > closeOutboxMax-len(entry); n++ {
		left -= len(o.entries[n])
	}
	o.drop(n)
	o.stats.Overflowed.Add(int64(n))
	o.entries = append(o.entries, entry)
	o.size += len(entry)
	o.header = nil
}

// Pending reports how many closes are waiting for a request to carry.
func (o *Outbox) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.entries)
}

// drop removes the n oldest entries, keeping the backing array.
func (o *Outbox) drop(n int) {
	for _, entry := range o.entries[:n] {
		o.size -= len(entry)
	}
	o.entries = o.entries[:copy(o.entries, o.entries[n:])]
	o.first += uint64(n)
	o.header = nil
}

// attach returns the header value carrying every pending close and the
// sequence number it ends at, or nil when nothing is pending. The slice
// is shared by every request sent until the outbox changes; nobody
// writes to it.
func (o *Outbox) attach() ([]string, uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.entries) == 0 {
		return nil, 0
	}
	if o.header == nil {
		o.header = []string{strings.Join(o.entries, ";")}
	}
	return o.header, o.first + uint64(len(o.entries))
}

// settle ends a request that carried the closes up to sequence end:
// whatever of them is still pending is dropped — delivered if the shard
// answered (any status: Server.ServeHTTP applied them before it looked
// at the request), lost and counted if the transport failed.
func (o *Outbox) settle(end uint64, answered bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if end <= o.first {
		return
	}
	n := int(end - o.first)
	o.drop(n)
	if !answered {
		o.stats.Lost.Add(int64(n))
	}
}

// appliedCloses remembers the last steps whose closes this shard has
// applied, newest appliedClosesSize of them. The zero value is ready;
// the ring is made when the first close arrives.
type appliedCloses struct {
	// mu also serialises application itself: of two requests carrying
	// the same close, the second waits until the first has applied it.
	mu    sync.Mutex
	seen  map[string]struct{}
	order ring.FIFO[string]
}

// applyCloses applies one CloseHeader value: every close in it not
// applied before, in order, each bound instance through
// pdp.PDP.CloseContext — under the commit lock, published as the purge
// event a mirror replays. An entry that does not parse is skipped: the
// gateway encodes what shards told it, and a close not applied is
// deny-safe. A store that fails the purge latches read-only mode as for
// any other write; the close is not tried again.
func (s *Server) applyCloses(header string) {
	a := &s.closes
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen == nil {
		a.seen, a.order = make(map[string]struct{}), ring.NewFIFO[string](appliedClosesSize)
	}
	for rest, more := header, true; more; {
		var entry string
		entry, rest, more = strings.Cut(rest, ";")
		field, contexts, ok := strings.Cut(entry, "|")
		if !ok {
			continue
		}
		id, ok := unescape(field)
		if !ok || id == "" {
			continue
		}
		if _, dup := a.seen[id]; dup {
			continue
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
				_, err = s.pdp.CloseContext(bound, id)
			}
			if err != nil {
				s.noteWriteFailure(err)
				applied = false
			}
		}
		// The header's string is the request's; the ring outlives it.
		id = strings.Clone(id)
		a.seen[id] = struct{}{}
		if oldest, evicted := a.order.Push(id); evicted {
			delete(a.seen, oldest)
		}
		if applied {
			s.metrics.closesApplied.Add(1)
		}
	}
}
