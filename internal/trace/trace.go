// Package trace is the tail sampler behind GET /v1/traces/{traceID}:
// after a decision completes, the server keeps its full span tree if
// the decision was refused, errored, or slow — the events an operator
// holding a trace ID from an exemplar, an audit record, or msodctl tail
// actually investigates — plus a deterministic 1-in-N sample of fast
// grants for baseline comparison. A kept tree is held by the decision's
// record in the shard's one decision ring (explain.Ring), filed under
// its trace ID, and served as a Record rendered from it; it rotates out
// with that record. A shard only holds traces for decisions it executed
// itself, which is why the gateway fans a trace query out across the
// cluster and merges the span sets it gets back.
package trace

import (
	"hash/fnv"
	"sync/atomic"
	"time"

	"msod/internal/explain"
	"msod/internal/obsv"
)

// Retention reasons, the label values of msod_trace_sampled_total.
const (
	ReasonRefusal = "refusal" // decision was denied
	ReasonError   = "error"   // pipeline errored before answering
	ReasonSlow    = "slow"    // took the slow threshold or longer
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

// NewRecord renders a retained decision as GET /v1/traces serves it:
// the shard's description of the decision, the reason the sampler kept
// it and its span tree. The record shares no slice with the entry. It
// names no request ID for an advisory.
func NewRecord(e *explain.Entry) Record {
	d := &e.Decision
	r := Record{
		TraceID: d.TraceID, RequestID: d.RequestID, Time: d.Time, SampledFor: e.SampledFor,
		User: d.User, Operation: d.Operation, Target: d.Target, Context: d.Context,
		Outcome: d.Outcome, Reason: d.Reason, Advisory: d.Advisory, ElapsedSeconds: d.Elapsed.Seconds(),
	}
	r.SetSpans(e.Spans)
	return r
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

// Config sets the tail-sampling policy.
type Config struct {
	// SampleEvery keeps a deterministic 1-in-N sample of fast grants
	// (hash of the trace ID, so the kept set is independent of
	// arrival order and concurrency). Zero or negative keeps none:
	// only refusals, errors and slow decisions are retained.
	SampleEvery int
	// SlowThreshold retains any decision that takes this long or
	// longer, regardless of outcome — msodd's -slowlog, so every
	// decision the slow log names has its tree kept. Zero disables the
	// slow criterion.
	SlowThreshold time.Duration
}

// Store is the tail sampler: it decides which span trees the shard
// keeps and counts its decisions. Safe for concurrent use.
type Store struct {
	cfg Config

	sampled [4]atomic.Int64 // per-reason keep decisions, indexed as Reasons
	dropped atomic.Int64    // fast grants the sampler let go
}

// NewStore returns a sampler with the given policy.
func NewStore(cfg Config) *Store { return &Store{cfg: cfg} }

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
	case st.cfg.SlowThreshold > 0 && elapsed >= st.cfg.SlowThreshold:
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
