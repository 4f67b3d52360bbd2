// Package trace is the per-process span store behind GET
// /v1/traces/{traceID}: after a decision completes, the server keeps
// its full span tree if the decision was refused, errored, or slow —
// the events an operator holding a trace ID from an exemplar, an
// audit record, or msodctl tail actually investigates — plus a
// deterministic 1-in-N sample of fast grants for baseline comparison.
// Sampled trees live in a bounded ring keyed by trace ID with pooled
// records (internal/ring, as internal/explain's are): old traces
// rotate out, and a shard only holds traces for decisions it executed
// itself, which is why the gateway fans a trace query out across the
// cluster and merges the span sets it gets back.
package trace

import (
	"hash/fnv"
	"sync/atomic"
	"time"

	"msod/internal/explain"
	"msod/internal/obsv"
	"msod/internal/ring"
)

// DefaultCapacity is the ring size used when Config.Capacity is
// non-positive.
const DefaultCapacity = 1024

// Retention reasons, the label values of msod_trace_sampled_total.
const (
	ReasonRefusal = "refusal" // decision was denied
	ReasonError   = "error"   // pipeline errored before answering
	ReasonSlow    = "slow"    // exceeded the slow threshold
	ReasonSampled = "sampled" // fast grant kept by the 1-in-N sampler
)

// Reasons lists the retention reasons in severity order, for stable
// metric exposition.
var Reasons = []string{ReasonRefusal, ReasonError, ReasonSlow, ReasonSampled}

// Span is one timed step of a retained trace. Shard is stamped by the
// gateway during cluster-wide assembly ("" on the shard itself).
type Span struct {
	Name            string  `json:"name"`
	Parent          string  `json:"parent,omitempty"`
	StartOffsetUS   int64   `json:"startOffsetUS"`
	DurationSeconds float64 `json:"durationSeconds"`
	Shard           string  `json:"shard,omitempty"`
}

// Record is one retained span tree. StartOffsetUS of each span is
// relative to Time so merged multi-shard trees order correctly even
// when shard clocks disagree slightly.
type Record struct {
	TraceID        string    `json:"traceID"`
	RequestID      string    `json:"requestID,omitempty"`
	Time           time.Time `json:"time"`
	User           string    `json:"user,omitempty"`
	Operation      string    `json:"op,omitempty"`
	Target         string    `json:"target,omitempty"`
	Context        string    `json:"ctx,omitempty"`
	Outcome        string    `json:"outcome"` // grant | deny | error
	Reason         string    `json:"reason,omitempty"`
	SampledFor     string    `json:"sampledFor"` // refusal | error | slow | sampled
	Advisory       bool      `json:"advisory,omitempty"`
	ElapsedSeconds float64   `json:"elapsedSeconds"`
	Shards         []string  `json:"shards,omitempty"`
	Spans          []Span    `json:"spans"`
}

// reset clears the record for reuse, keeping backing arrays.
func (r *Record) reset() { *r = Record{Shards: r.Shards[:0], Spans: r.Spans[:0]} }

// clone deep-copies the record so it stays valid after the pooled
// original rotates out and is reused.
func (r *Record) clone() Record {
	out := *r
	out.Shards = append([]string(nil), r.Shards...)
	out.Spans = append([]Span(nil), r.Spans...)
	return out
}

// Describe fills a reset record from the shard's one description of
// the decision, the reason the sampler kept it, and its span tree. The
// record names no request ID for an advisory.
func (r *Record) Describe(d *explain.Decision, sampledFor string, spans []obsv.Span) {
	r.TraceID, r.RequestID, r.Time, r.SampledFor = d.TraceID, d.RequestID, d.Time, sampledFor
	r.User, r.Operation, r.Target, r.Context = d.User, d.Operation, d.Target, d.Context
	r.Outcome, r.Reason, r.Advisory, r.ElapsedSeconds = d.Outcome, d.Reason, d.Advisory, d.Elapsed.Seconds()
	r.SetSpans(spans)
}

// SetSpans converts a completed obsv span set into the record's wire
// shape, reusing the record's backing array. Call it after Time is
// set: span starts become offsets from it.
func (r *Record) SetSpans(spans []obsv.Span) {
	r.Spans = r.Spans[:0]
	for _, s := range spans {
		r.Spans = append(r.Spans, Span{
			Name:            s.Name,
			Parent:          s.Parent,
			StartOffsetUS:   s.Start.Sub(r.Time).Microseconds(),
			DurationSeconds: s.Duration.Seconds(),
		})
	}
}

// Config sizes the store and sets its tail-sampling policy.
type Config struct {
	// Capacity bounds the ring; non-positive means DefaultCapacity.
	Capacity int
	// SampleEvery keeps a deterministic 1-in-N sample of fast grants
	// (hash of the trace ID, so the kept set is independent of
	// arrival order and concurrency). Zero or negative keeps none:
	// only refusals, errors and slow decisions are retained.
	SampleEvery int
	// SlowThreshold retains any decision slower than this regardless
	// of outcome. Zero disables the slow criterion.
	SlowThreshold time.Duration
}

// keyed is the pooled ring of records under a Store: Begin, Discard,
// Get, Len, Capacity and Evicted are its methods (see ring.Keyed).
type keyed = ring.Keyed[Record, Record]

// Store retains sampled span trees in a fixed ring keyed by trace ID,
// handing out pooled records for the hot path: Begin takes a record
// from the pool, the server fills it, Commit files it in the ring, and
// the record a commit evicts returns to the pool. Safe for concurrent
// use; a record handed out by Begin must not be shared across
// goroutines until committed.
type Store struct {
	*keyed
	cfg Config

	spans   atomic.Int64    // spans currently held across the ring
	sampled [4]atomic.Int64 // per-reason keep decisions, indexed as Reasons
	dropped atomic.Int64    // fast grants the sampler let go
}

// NewStore returns a store with the given policy.
func NewStore(cfg Config) *Store {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	st := &Store{cfg: cfg}
	st.keyed = ring.NewKeyed(cfg.Capacity,
		func(r *Record) string { return r.TraceID }, (*Record).reset, (*Record).clone,
		func(old *Record) { st.spans.Add(-int64(len(old.Spans))) })
	return st
}

// Sample is the tail-sampling decision, taken after the decision
// completes: refusals and errors are always kept, slow decisions are
// kept when a threshold is set, and fast grants are kept 1-in-N by a
// hash of the trace ID — deterministic, so the same decision stream
// yields the same kept set regardless of ordering or concurrency. It
// returns the retention reason and whether to keep the trace, and
// counts the decision either way.
func (st *Store) Sample(traceID string, refused, errored bool, elapsed time.Duration) (string, bool) {
	switch {
	case errored:
		st.sampled[1].Add(1)
		return ReasonError, true
	case refused:
		st.sampled[0].Add(1)
		return ReasonRefusal, true
	case st.cfg.SlowThreshold > 0 && elapsed > st.cfg.SlowThreshold:
		st.sampled[2].Add(1)
		return ReasonSlow, true
	case st.cfg.SampleEvery > 0 && hashID(traceID)%uint64(st.cfg.SampleEvery) == 0:
		st.sampled[3].Add(1)
		return ReasonSampled, true
	}
	st.dropped.Add(1)
	return "", false
}

// hashID is FNV-1a over the trace ID: stable across processes and
// restarts, so every shard a trace ID reaches, before and after a
// restart, samples it alike.
func hashID(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// Commit files the record in the ring under its TraceID. The caller
// must not touch the record afterwards: once filed it may be served,
// evicted and reused at any time. Committing a duplicate TraceID
// retains both ring slots but the newer record wins lookups.
func (st *Store) Commit(rec *Record) {
	if rec == nil {
		return
	}
	st.spans.Add(int64(len(rec.Spans)))
	st.keyed.Commit(rec)
}

// SpanCount reports how many spans the retained traces hold in total
// — the msod_trace_store_spans gauge.
func (st *Store) SpanCount() int { return int(st.spans.Load()) }

// SampledTotal reports how many keep decisions the sampler has taken
// for the given reason (one of Reasons; unknown reasons report zero).
func (st *Store) SampledTotal(reason string) int64 {
	for i, r := range Reasons {
		if r == reason {
			return st.sampled[i].Load()
		}
	}
	return 0
}

// Dropped reports how many fast grants the sampler let go unretained.
func (st *Store) Dropped() int64 { return st.dropped.Load() }
