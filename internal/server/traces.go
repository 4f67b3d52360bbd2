package server

import (
	"net/http"

	"msod/internal/obsv"
	"msod/internal/trace"
)

// TracesPath serves retained span trees (GET /v1/traces/{traceID}):
// the per-stage timing breakdown of one decision, kept by the
// tail sampler — every refusal and error, every decision over the
// slow threshold, plus a deterministic 1-in-N sample of fast grants.
// Trees live in a bounded in-memory ring — old traces rotate out, and
// a shard only holds trees for decisions it executed itself, which is
// why the gateway fans a trace query out across the cluster and
// merges the span sets it gets back.
const TracesPath = "/v1/traces/"

// WithTraceStore attaches a tail-sampled span store: every completed
// decision (and advisory) runs the store's sampling decision, and
// retained trees become queryable at /v1/traces/{traceID}. A nil
// store leaves tracing retention off — spans are still measured for
// the stage histograms, but the trees are discarded and the decision
// path pays a single nil check.
func WithTraceStore(st *trace.Store) Option {
	return func(s *Server) { s.traces = st }
}

// Traces exposes the server's trace store (nil when disabled) — for
// the embedding daemon and tests; HTTP callers use TracesPath.
func (s *Server) Traces() *trace.Store { return s.traces }

// tracesLookup serves TracesPath from the trace store.
func (s *Server) tracesLookup() http.Handler {
	l := ringLookup[trace.Record]{
		path:    TracesPath,
		usage:   "trace ID required: GET " + TracesPath + "{traceID}",
		off:     "trace retention disabled on this server",
		miss:    [2]string{"no trace for ID ", " on this shard (not sampled, rotated out, or decided elsewhere)"},
		queries: &s.metrics.traceQueries, misses: &s.metrics.traceMisses,
	}
	if s.traces != nil {
		l.get = s.traces.Get
	}
	return l
}

// recordTrace runs the tail-sampling decision for a decided request
// and, when the sampler keeps it, files the span tree in the store. A
// nil store costs one comparison.
func (s *Server) recordTrace(c *decisionCall, spans []obsv.Span) {
	if s.traces == nil {
		return
	}
	sampledFor, keep := s.traces.Sample(c.d.TraceID, c.err == nil && !c.resp.Allowed, c.err != nil, c.d.Elapsed)
	if !keep {
		return
	}
	rec := s.traces.Begin()
	rec.Describe(&c.d, sampledFor, spans)
	s.traces.Commit(rec)
}
