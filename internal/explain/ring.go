package explain

import (
	"slices"
	"sync"

	"msod/internal/obsv"
	"msod/internal/ring"
)

// DefaultCapacity is the ring size used when NewRing is given a
// non-positive capacity.
const DefaultCapacity = 1024

// Ring is the shard's one record of the decisions it made: the most
// recent ones in a fixed FIFO of pooled entries, each filed under up to
// two keys. An answered decision is filed under its request ID (what
// GET /v1/explain serves), and an entry holding a span tree the tail
// sampler kept under its trace ID (what GET /v1/traces serves), so an
// errored decision or an advisory with a kept tree is found by trace ID
// only. Begin takes an entry from the pool, the engine hands it the
// rules it consults, Commit files it with the shard's Decision, and the
// entry a commit evicts leaves both lookups and returns to the pool.
// Nothing is rendered until a lookup serves it.
//
// Ring is safe for concurrent use; an entry handed out by Begin must
// not be shared across goroutines until committed.
type Ring struct {
	mu        sync.Mutex
	fifo      ring.FIFO[*Entry]
	byRequest map[string]*Entry
	byTrace   map[string]*Entry
	evicted   int64
	pool      sync.Pool
}

// NewRing returns a ring retaining up to capacity decisions.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{
		fifo:      ring.NewFIFO[*Entry](capacity),
		byRequest: make(map[string]*Entry, capacity),
		byTrace:   make(map[string]*Entry),
		pool:      sync.Pool{New: func() any { return new(Entry) }},
	}
}

// Begin returns a reset entry from the pool. Every Begin must be
// balanced by exactly one Commit.
func (r *Ring) Begin() *Entry {
	e := r.pool.Get().(*Entry)
	e.reset()
	return e
}

// Commit files the entry with d as its Decision: under d's RequestID
// when it is an answered decision (an advisory has none, an error is
// not one), under d's TraceID when the entry holds a kept span tree
// (Keep). An entry filed under neither goes back to the pool. The
// caller must not touch the entry afterwards: once filed it may be
// served, evicted and reused at any time. A key filed again wins its
// lookups; the older entry keeps its other key until it is evicted.
func (r *Ring) Commit(e *Entry, d *Decision) {
	e.Decision = *d
	answered := d.RequestID != "" && d.Outcome != OutcomeError
	if !answered && e.SampledFor == "" {
		r.pool.Put(e)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, evicted := r.fifo.Push(e); evicted {
		// Identity checks: a newer entry may hold either key by now.
		if r.byRequest[old.RequestID] == old {
			delete(r.byRequest, old.RequestID)
		}
		if r.byTrace[old.TraceID] == old {
			delete(r.byTrace, old.TraceID)
		}
		r.evicted++
		r.pool.Put(old)
	}
	if answered {
		r.byRequest[d.RequestID] = e
	}
	if e.SampledFor != "" {
		r.byTrace[d.TraceID] = e
	}
}

// Get renders the record of the answered decision filed under
// requestID, under the ring's lock. The record shares nothing with the
// pooled entry, so it stays valid after the entry is evicted and reused.
func (r *Ring) Get(requestID string) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byRequest[requestID]
	if !ok {
		return Record{}, false
	}
	return e.record(), true
}

// Trace returns a copy of the entry filed under traceID — its
// Decision, SampledFor and Spans, no rules — made under the ring's
// lock. The copy's spans are its own, so it stays valid after the
// entry is evicted and reused.
func (r *Ring) Trace(traceID string) (Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byTrace[traceID]
	if !ok {
		return Entry{}, false
	}
	return Entry{Decision: e.Decision, SampledFor: e.SampledFor, Spans: slices.Clone(e.Spans)}, true
}

// Retained reports how many request IDs GET /v1/explain finds and how
// many trace IDs GET /v1/traces finds.
func (r *Ring) Retained() (explained, traced int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byRequest), len(r.byTrace)
}

// Evicted reports how many filed entries have rotated out since the
// ring was built.
func (r *Ring) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// Keep has the entry hold the decision's span tree, which the tail
// sampler kept for the reason sampledFor: Commit then files it under
// its trace ID. The spans are copied into the entry's own array.
func (e *Entry) Keep(sampledFor string, spans []obsv.Span) {
	e.SampledFor = sampledFor
	e.Spans = append(e.Spans[:0], spans...)
}
