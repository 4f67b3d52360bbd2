package server

import (
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"

	"msod/internal/explain"
	"msod/internal/obsv"
)

// ExplainPath serves per-decision provenance records
// (GET /v1/explain/{requestID}): the resolved subject, the policies
// and MSoD rules evaluated with their k-of-m counter state before and
// after the decision, and the exact constraint that produced the
// grant or refusal. Records live in the shard's bounded decision ring
// — old decisions rotate out, and a shard only holds records for
// decisions it executed itself, which is why the gateway fans an
// explain query out across the cluster.
const ExplainPath = "/v1/explain/"

// WithExplainCapacity sizes the per-shard decision ring: how many
// recent decisions stay queryable at /v1/explain/{requestID}, and for
// as long their span trees at /v1/traces/{traceID}. Zero keeps the
// default (explain.DefaultCapacity); negative disables the ring, and
// with it both lookups and the tail sampler, removing its (small)
// per-decision cost.
func WithExplainCapacity(n int) Option {
	return func(s *Server) { s.explainCap = n }
}

// WithSLO attaches a service-level-objective tracker: every decision,
// advisory and refusal feeds it, and /v1/metrics grows the msod_slo_*
// families (error budget remaining, fast/slow burn rates). A nil
// tracker is accepted and leaves the SLO layer off.
func WithSLO(slo *obsv.SLO) Option {
	return func(s *Server) { s.slo = slo }
}

// explainLookup serves ExplainPath from the decision ring.
func (s *Server) explainLookup() http.Handler {
	l := ringLookup[explain.Record]{
		path:    ExplainPath,
		usage:   "request ID required: GET " + ExplainPath + "{requestID}",
		off:     "explain recording disabled on this server",
		miss:    [2]string{"no explain record for request ID ", " on this shard (rotated out, or decided elsewhere)"},
		queries: &s.metrics.explainQueries, misses: &s.metrics.explainMisses,
	}
	if s.decisions != nil {
		l.get = s.decisions.Get
	}
	return l
}

// LookupID reads the ID a GET of prefix{id} names: the rest of the path
// as the caller sent it, unescaped, so an ID holding a "/" (sent as
// %2F) is read whole. It reports false for a path whose rest is empty
// or holds a "/" of its own.
func LookupID(r *http.Request, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(r.URL.EscapedPath(), prefix)
	if !ok || rest == "" || strings.Contains(rest, "/") {
		return "", false
	}
	id, err := url.PathUnescape(rest)
	return id, err == nil
}

// ringLookup is GET path{id} over the decision ring (explain records,
// trace trees), counting every lookup and miss.
type ringLookup[R any] struct {
	path  string
	usage string    // the 400 for a path without an ID
	off   string    // the 404 when the server keeps no ring (get nil)
	miss  [2]string // the 404 for a miss is miss[0] + id + miss[1]
	get   func(id string) (R, bool)

	queries, misses *atomic.Int64
}

func (l ringLookup[R]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET required"})
		return
	}
	if l.get == nil {
		WriteJSON(w, http.StatusNotFound, errorResponse{l.off})
		return
	}
	id, ok := LookupID(r, l.path)
	if !ok {
		WriteJSON(w, http.StatusBadRequest, errorResponse{l.usage})
		return
	}
	l.queries.Add(1)
	rec, ok := l.get(id)
	if !ok {
		l.misses.Add(1)
		WriteJSON(w, http.StatusNotFound, errorResponse{l.miss[0] + id + l.miss[1]})
		return
	}
	WriteJSON(w, http.StatusOK, rec)
}
