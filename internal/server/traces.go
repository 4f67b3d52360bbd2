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
// A kept tree is held by the decision's record in the shard's bounded
// decision ring and rotates out with it, and a shard only holds trees
// for decisions it executed itself, which is why the gateway fans a
// trace query out across the cluster and merges the span sets it gets
// back.
const TracesPath = "/v1/traces/"

// WithTraceStore attaches the tail sampler: every completed decision
// (and advisory) runs its sampling decision, and the decision ring
// keeps the trees it retains, queryable at /v1/traces/{traceID}. A nil
// store leaves tracing retention off — spans are still measured for
// the stage histograms, but the trees are discarded.
func WithTraceStore(st *trace.Store) Option {
	return func(s *Server) { s.traces = st }
}

// tracesLookup serves TracesPath from the decision ring.
func (s *Server) tracesLookup() http.Handler {
	l := ringLookup[trace.Record]{
		path:    TracesPath,
		usage:   "trace ID required: GET " + TracesPath + "{traceID}",
		off:     "trace retention disabled on this server",
		miss:    [2]string{"no trace for ID ", " on this shard (not sampled, rotated out, or decided elsewhere)"},
		queries: &s.metrics.traceQueries, misses: &s.metrics.traceMisses,
	}
	if s.traces != nil {
		l.get = s.traceRecord
	}
	return l
}

// traceRecord renders the span tree the decision ring keeps under
// traceID.
func (s *Server) traceRecord(traceID string) (trace.Record, bool) {
	e, ok := s.decisions.Trace(traceID)
	if !ok {
		return trace.Record{}, false
	}
	return trace.NewRecord(&e), true
}

// file runs the tail sampler over a decided request and files its
// record in the decision ring: the entry the engine filled (a
// decision's), or, for an advisory whose tree the sampler keeps, one of
// its own. The ring files it under the request ID, the trace ID, both
// or — its pooled entry going back — neither. Without a ring nothing is
// sampled.
func (s *Server) file(c *decisionCall, spans []obsv.Span) {
	if s.decisions == nil {
		return
	}
	x := c.dc.xrec
	if s.traces != nil {
		// Errored decisions are always kept — they are exactly what an
		// operator holding the trace ID from the error log investigates.
		if reason, keep := s.traces.Sample(c.d.TraceID, c.err == nil && !c.dec.Allowed, c.err != nil, c.d.Elapsed); keep {
			if x == nil {
				x = s.decisions.Begin()
			}
			x.Keep(reason, spans)
		}
	}
	if x != nil {
		s.decisions.Commit(x, &c.d)
	}
}
