package obsv

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultDurationBuckets are the fixed upper bounds (seconds) of the
// decision-latency histograms. They span the range the benchmark
// measures: a few µs in-process through tens of ms for durable-store
// grants.
var DefaultDurationBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 1,
}

// Histogram is a lock-free fixed-bucket duration histogram in the
// Prometheus cumulative-bucket model. Buckets are stored
// non-cumulative (one atomic add per observation, no contention
// across buckets) and accumulated at exposition time.
type Histogram struct {
	bounds []float64
	// counts[i] observations fell in bucket i; the final slot is the
	// +Inf overflow bucket.
	counts   []atomic.Int64
	sumNanos atomic.Int64
	// exemplars[i] is the most recent traced observation that fell in
	// bucket i, written in place, emitted as an OpenMetrics exemplar
	// (`# {trace_id="..."} value`) so a dashboard can jump from a slow
	// bucket to a concrete trace.
	exemplars []exemplarSlot
}

// exemplarSlot is one bucket's retained exemplar. A writer stores the
// trace ID it was handed and the value under the slot's lock, so
// ObserveExemplar allocates nothing; a writer that finds the lock taken
// skips, because the exemplar being written is as recent as its own.
// Readers wait for the lock, and so never see half of one write.
type exemplarSlot struct {
	mu sync.Mutex
	// e is the exemplar; its empty TraceID means none landed yet.
	e Exemplar
}

// store retains e unless another writer holds the slot.
func (s *exemplarSlot) store(e Exemplar) {
	if s.mu.TryLock() {
		s.e = e
		s.mu.Unlock()
	}
}

// load returns the retained exemplar, ok false until one landed.
func (s *exemplarSlot) load() (Exemplar, bool) {
	s.mu.Lock()
	e := s.e
	s.mu.Unlock()
	return e, e.TraceID != ""
}

// Exemplar is one concrete traced observation attached to a histogram
// bucket.
type Exemplar struct {
	// TraceID is the W3C trace ID of the request that produced the
	// observation.
	TraceID string
	// Value is the observed value in the histogram's unit (seconds).
	Value float64
}

// NewHistogram builds a histogram over the given upper bounds
// (seconds, strictly increasing). The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obsv: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obsv: histogram bounds not increasing at %d", i))
		}
	}
	return &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]exemplarSlot, len(bounds)+1),
	}
}

// Observe records one duration. An observation exactly on a bucket's
// upper bound lands in that bucket (le = less-or-equal semantics).
func (h *Histogram) Observe(d time.Duration) {
	h.observe(d, "")
}

// ObserveExemplar records one duration and retains it as the bucket's
// exemplar under the given trace ID (an empty ID observes without an
// exemplar). The exemplar is written into the bucket's slot in place:
// the hot path costs no allocation over Observe.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	h.observe(d, traceID)
}

func (h *Histogram) observe(d time.Duration, traceID string) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
	if traceID != "" {
		h.exemplars[i].store(Exemplar{TraceID: traceID, Value: s})
	}
}

// BucketExemplar returns the retained exemplar of bucket i (the +Inf
// bucket is index len(bounds)); ok is false until a traced
// observation lands there.
func (h *Histogram) BucketExemplar(i int) (Exemplar, bool) {
	if i < 0 || i >= len(h.exemplars) {
		return Exemplar{}, false
	}
	return h.exemplars[i].load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Write emits the histogram with its HELP/TYPE header.
func (h *Histogram) Write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	h.writeSeries(w, name, "", false)
}

// WriteExposition is Write with the exposition dialect negotiated by
// the caller: when openMetrics is true, bucket lines that retain an
// exemplar get it appended (`... # {trace_id="..."} value`). Only
// scrapes that negotiated the OpenMetrics content type may see
// exemplars — the classic text parser rejects the suffix. This is the
// single emitter call for a family served in both dialects, so
// msodvet's exactly-once rule still holds.
func (h *Histogram) WriteExposition(w io.Writer, name, help string, openMetrics bool) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	h.writeSeries(w, name, "", openMetrics)
}

// WriteSeries emits only the series lines, with extra labels (e.g.
// `stage="cvs"`) merged into every line — the building block for
// multi-series families that share one header.
func (h *Histogram) WriteSeries(w io.Writer, name, labels string) {
	h.writeSeries(w, name, labels, false)
}

func (h *Histogram) writeSeries(w io.Writer, name, labels string, withExemplars bool) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	exemplar := func(i int) string {
		if !withExemplars {
			return ""
		}
		e, ok := h.exemplars[i].load()
		if !ok {
			return ""
		}
		return fmt.Sprintf(" # {trace_id=%q} %s", e.TraceID, FormatValue(e.Value))
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d%s\n",
			name, labels+sep, strconv.FormatFloat(bound, 'g', -1, 64), cum, exemplar(i))
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d%s\n", name, labels+sep, cum, exemplar(len(h.bounds)))
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name,
			strconv.FormatFloat(time.Duration(h.sumNanos.Load()).Seconds(), 'g', -1, 64))
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels,
		strconv.FormatFloat(time.Duration(h.sumNanos.Load()).Seconds(), 'g', -1, 64))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
}

// StageHistograms is a fixed family of stage-labelled histograms
// (msod_stage_duration_seconds{stage=...}). The stage set is fixed at
// construction so Observe stays lock-free; unknown stages are
// ignored. Write emits every declared stage even at zero
// observations, so scrapers and smoke tests see the full family from
// the first scrape.
type StageHistograms struct {
	name, help string
	stages     []string
	hists      map[string]*Histogram
}

// NewStageHistograms builds the family over DefaultDurationBuckets.
func NewStageHistograms(name, help string, stages ...string) *StageHistograms {
	s := &StageHistograms{
		name:   name,
		help:   help,
		stages: append([]string(nil), stages...),
		hists:  make(map[string]*Histogram, len(stages)),
	}
	for _, st := range s.stages {
		s.hists[st] = NewHistogram(DefaultDurationBuckets)
	}
	return s
}

// Observe records one duration for a stage; unknown stages are
// dropped.
func (s *StageHistograms) Observe(stage string, d time.Duration) {
	if h, ok := s.hists[stage]; ok {
		h.Observe(d)
	}
}

// Stage returns one stage's histogram (nil when undeclared).
func (s *StageHistograms) Stage(stage string) *Histogram { return s.hists[stage] }

// Write emits the whole family under one HELP/TYPE header, stages in
// declaration order.
func (s *StageHistograms) Write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", s.name, s.help, s.name)
	for _, st := range s.stages {
		s.hists[st].WriteSeries(w, s.name, fmt.Sprintf("stage=%q", st))
	}
}
