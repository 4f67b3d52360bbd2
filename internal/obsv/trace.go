// Package obsv is the observability layer of the MSoD deployment:
// per-decision trace IDs and span trees carried through
// context.Context, lock-free Prometheus-style histograms for the
// decision pipeline's stages, structured-logging helpers, and the text
// exposition plumbing shared by the PDP server and the cluster
// gateway. It depends only on the standard library.
//
// The trace ID is the correlation key of the whole deployment: the
// gateway forwards a PEP's valid W3C traceparent to the owning shard as
// it came (ParseTraceparent) or mints one per routed decision
// (NewTraceparent), and the shard stamps its trace ID into both the
// DecisionResponse and the durable audit-trail record — so one ID
// links the gateway's log line, the shard's answer, and the
// tamper-evident history the decision was evaluated against.
package obsv

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical stage names of the decision pipeline, used both as span
// names inside a trace and as the "stage" label of the per-stage
// latency histograms. The store span is recorded inside the msod span
// (the engine's commit phase), so msod durations include store time.
const (
	StageCVS   = "cvs"   // credential validation / subject resolution
	StageRBAC  = "rbac"  // ordinary role-permission check
	StageMSoD  = "msod"  // §4.2 MSoD algorithm against the retained ADI
	StageStore = "store" // retained-ADI commit (appends + last-step purges)
	StageAudit = "audit" // audit-trail append
)

// Stages lists the canonical pipeline stages in execution order.
var Stages = []string{StageCVS, StageRBAC, StageMSoD, StageStore, StageAudit}

// SpanAuditRotate is the audit segment rotation, nested in audit. Like
// internal/adi's SpanWAL, it appears in traces, not as a histogram label.
const SpanAuditRotate = "audit.rotate"

// TraceID is a W3C trace-id: 32 lowercase hex characters, non-zero.
type TraceID string

// Fallback trace-ID state: a per-process boot nonce mixed with a
// monotonic counter, used only when the entropy source fails. IDs from
// the fallback are valid and unique within the process (the counter)
// and unlikely to collide across processes (the nonce), which is what
// correlation needs — they are not unguessable, which correlation does
// not.
var (
	fallbackOnce  sync.Once
	fallbackNonce [8]byte
	fallbackCtr   atomic.Uint64
)

// initFallbackNonce derives the boot nonce: real entropy when any is
// available, else the boot time mixed with the PID — distinct processes
// still get distinct nonces with overwhelming likelihood.
func initFallbackNonce() {
	if _, err := rand.Read(fallbackNonce[:]); err == nil {
		return
	}
	binary.BigEndian.PutUint64(fallbackNonce[:], uint64(time.Now().UnixNano())^uint64(os.Getpid())<<32)
}

// newTraceBytes draws the 16 bytes of a trace ID. On entropy failure it
// falls back (fallbackTraceBytes) rather than returning the all-zero,
// invalid ID and silently breaking correlation for every decision until
// entropy recovers. The array stays on the caller's stack.
func newTraceBytes() [16]byte {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fallbackTraceBytes()
	}
	return b
}

// fallbackTraceBytes is a trace ID's bytes without entropy: the boot
// nonce, then the counter. The counter starts at 1, so the low 8 bytes
// are never all zero and the ID always passes Valid even with an
// all-zero nonce.
func fallbackTraceBytes() [16]byte {
	fallbackOnce.Do(initFallbackNonce)
	var b [16]byte
	copy(b[:8], fallbackNonce[:])
	binary.BigEndian.PutUint64(b[8:], fallbackCtr.Add(1))
	return b
}

// NewTraceID mints a random trace ID (see newTraceBytes for what it
// does without entropy). It costs the string it is returned as.
func NewTraceID() TraceID {
	b := newTraceBytes()
	var id [32]byte
	hex.Encode(id[:], b[:])
	return TraceID(id[:])
}

// Valid reports whether the ID is 32 lowercase hex chars and non-zero.
func (id TraceID) Valid() bool {
	if len(id) != 32 {
		return false
	}
	zero := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// TraceparentHeader is the propagation header, as in the W3C Trace
// Context recommendation.
const TraceparentHeader = "Traceparent"

// Traceparent renders a version-00 traceparent value for this trace
// ID with a fresh parent span ID and the sampled flag set.
func (id TraceID) Traceparent() string {
	// Assembled on the stack: the value costs the string it is returned as.
	b := make([]byte, 0, 64)
	b = append(b, "00-"...)
	b = append(b, id...)
	return string(appendParentSpan(b))
}

// NewTraceparent mints the traceparent value of a new trace: a fresh
// trace ID (as NewTraceID) and parent span ID, sampled. It costs the
// one string; the trace ID is its substring [3:35], which
// ParseTraceparent returns without copying.
func NewTraceparent() string {
	b := make([]byte, 0, 64)
	b = append(b, "00-"...)
	return string(appendParentSpan(AppendTraceID(b)))
}

// AppendTraceID appends the 32 characters of a freshly minted trace ID
// (as NewTraceID) to b, for a caller that wants it inside a string of
// its own making.
func AppendTraceID(b []byte) []byte {
	raw := newTraceBytes()
	return hex.AppendEncode(b, raw[:])
}

// appendParentSpan ends a traceparent value after its trace ID: a fresh
// random parent span ID and the sampled flag.
func appendParentSpan(b []byte) []byte {
	var span [8]byte
	if _, err := rand.Read(span[:]); err != nil {
		span = [8]byte{0, 0, 0, 0, 0, 0, 0, 1}
	}
	b = append(b, '-')
	b = hex.AppendEncode(b, span[:])
	return append(b, "-01"...)
}

// ParseTraceparent extracts the trace ID from a traceparent header
// value: "00-<32 hex trace-id>-<16 hex span-id>-<flags>". It is
// lenient about flags and trailing fields (future versions append
// them) but rejects a malformed or all-zero trace ID.
func ParseTraceparent(h string) (TraceID, bool) {
	// version(2) '-' traceid(32) '-' spanid(16) '-' flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	if h[0] != '0' || h[1] != '0' {
		return "", false // only version 00 is understood
	}
	id := TraceID(h[3:35])
	if !id.Valid() {
		return "", false
	}
	return id, true
}

// Span is one timed step inside a trace, as AppendSpans reports it.
// Parent is the name of the span that was still open when this one
// started ("" for a root span), giving the completed trace a tree shape
// a waterfall view can indent by — e.g. the engine's store span nests
// under the msod span.
type Span struct {
	Name     string
	Parent   string
	Start    time.Time
	Duration time.Duration
}

// inlineSpans is how many spans a Trace holds inside its own
// allocation. A durable one-policy decision records seven — cvs, rbac,
// msod, its msod.policy span, store, store.wal, audit — so eight keep a
// served decision's spans in the one value that carries them; a
// request matching more policies spills.
const inlineSpans = 8

// span is a span as its trace holds it: start and dur are offsets, dur
// negative while the span is open.
type span struct {
	name       string
	start, dur time.Duration
}

// spanBook is a trace's span bookkeeping, as slices over its inline
// arrays (int8 slots) or over a spill of its own (int). A span's slot is
// its start order.
type spanBook[I int8 | int] struct {
	spans  []span
	parent []I // by slot: the innermost open span at its start, or -1
	open   []I // the open-span stack, innermost last
	order  []I // the completed spans, in completion order
}

func (b *spanBook[I]) start(name string, at time.Duration) int {
	slot, parent := I(len(b.spans)), I(-1)
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
	}
	b.spans = append(b.spans, span{name, at, -1})
	b.parent = append(b.parent, parent)
	b.open = append(b.open, slot)
	return int(slot)
}

// end completes the span in slot, once, and pops the innermost open
// entry of its name: its own, unless same-named spans end out of order.
func (b *spanBook[I]) end(slot int, at time.Duration) {
	s := &b.spans[slot]
	if s.dur >= 0 {
		return // a copy of its SpanEnd ended it already
	}
	s.dur = at - s.start
	for i := len(b.open) - 1; i >= 0; i-- {
		if b.spans[b.open[i]].name == s.name {
			b.open = append(b.open[:i], b.open[i+1:]...)
			break
		}
	}
	b.order = append(b.order, I(slot))
}

func (b *spanBook[I]) appendTo(dst []Span, start time.Time) []Span {
	for _, slot := range b.order {
		s, parent := b.spans[slot], ""
		if p := b.parent[slot]; p >= 0 {
			parent = b.spans[p].name
		}
		dst = append(dst, Span{Name: s.name, Parent: parent, Start: start.Add(s.start), Duration: s.dur})
	}
	return dst
}

// Trace is the span collection of one decision. It is safe for
// concurrent use; spans are reported in completion order. Parent
// attribution assumes the spans of one trace nest on a single goroutine
// (the decision pipeline's shape) — spans opened concurrently from
// several goroutines still record, but their parent is whichever span
// happened to be newest when they started.
type Trace struct {
	id    TraceID
	start time.Time

	mu                  sync.Mutex
	spill               *spill // once a ninth span starts
	spans               [inlineSpans]span
	parent, open, order [inlineSpans]int8
	n, depth, done      int8
}

// NewTrace starts a trace under the given ID.
func NewTrace(id TraceID) *Trace {
	t := new(Trace)
	t.Init(id)
	return t
}

// Init starts a zero Trace held inside a value of the caller's own.
func (t *Trace) Init(id TraceID) { t.id, t.start = id, time.Now() }

// ID returns the trace ID.
func (t *Trace) ID() TraceID { return t.id }

// Start returns when the trace began.
func (t *Trace) Start() time.Time { return t.start }

func (t *Trace) inline() spanBook[int8] {
	return spanBook[int8]{t.spans[:t.n], t.parent[:t.n], t.open[:t.depth], t.order[:t.done]}
}

func (t *Trace) keep(b *spanBook[int8]) {
	t.n, t.depth, t.done = int8(len(b.spans)), int8(len(b.open)), int8(len(b.order))
}

// OpenSpan begins a named span and returns the slot CloseSpan ends it
// by. It is the method set by which internal/core and internal/adi,
// which cannot import this package, record spans (their Tracer).
func (t *Trace) OpenSpan(name string) int {
	at := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spill == nil && t.n < inlineSpans {
		b := t.inline()
		defer t.keep(&b)
		return b.start(name, at)
	}
	if t.spill == nil {
		b, sp := t.inline(), new(spill)
		sp.spans = append(sp.spanBuf[:0], b.spans...)
		sp.parent = widen(sp.idxBuf[0][:0], b.parent)
		sp.open = widen(sp.idxBuf[1][:0], b.open)
		sp.order = widen(sp.idxBuf[2][:0], b.order)
		t.spill = sp
	}
	return t.spill.start(name, at)
}

// spill is a trace's bookkeeping once a ninth span starts: one
// allocation with room for twice the inline spans, growing as slices
// do past them.
type spill struct {
	spanBook[int]
	spanBuf [2 * inlineSpans]span
	idxBuf  [3][2 * inlineSpans]int
}

func widen(dst []int, s []int8) []int {
	for _, v := range s {
		dst = append(dst, int(v))
	}
	return dst
}

// CloseSpan completes the span in slot.
func (t *Trace) CloseSpan(slot int) {
	at := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spill != nil {
		t.spill.end(slot, at)
		return
	}
	b := t.inline()
	b.end(slot, at)
	t.keep(&b)
}

// SpanEnd is an open span: a value, not a closure, so starting a span
// allocates nothing. The zero SpanEnd ends nothing.
type SpanEnd struct {
	t    *Trace
	slot int
}

// StartSpan begins a named span (OpenSpan), recorded when End is called
// on the returned value.
func (t *Trace) StartSpan(name string) SpanEnd { return SpanEnd{t, t.OpenSpan(name)} }

// End completes the span and records it on its trace.
func (e SpanEnd) End() {
	if e.t != nil {
		e.t.CloseSpan(e.slot)
	}
}

// AppendSpans appends the completed spans to dst in completion order.
func (t *Trace) AppendSpans(dst []Span) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spill != nil {
		return t.spill.appendTo(dst, t.start)
	}
	b := t.inline()
	return b.appendTo(dst, t.start)
}

// Spans returns a copy of the completed spans, in completion order.
func (t *Trace) Spans() []Span { return t.AppendSpans(nil) }

type contextKey struct{ name string }

// TraceKey is the context key of a trace. WithTrace's context answers
// it, and so does the shard's per-decision context, which answers the
// Tracer keys of internal/core and internal/adi as well.
var TraceKey = &contextKey{"obsv trace"}

// WithTrace attaches a trace to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, TraceKey, t)
}

// TraceFrom returns the context's trace, or nil. Callers on hot paths
// check this once and skip all span bookkeeping when untraced.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(TraceKey).(*Trace)
	return t
}

// TraceIDFrom returns the context's trace ID, or "".
func TraceIDFrom(ctx context.Context) TraceID {
	if t := TraceFrom(ctx); t != nil {
		return t.id
	}
	return ""
}

// StartSpan begins a span on the context's trace; without a trace it
// returns the zero SpanEnd, so untraced callers pay only a context
// lookup.
func StartSpan(ctx context.Context, name string) SpanEnd {
	if t := TraceFrom(ctx); t != nil {
		return t.StartSpan(name)
	}
	return SpanEnd{}
}
