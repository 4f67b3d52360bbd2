package cluster

import (
	"context"
	"fmt"
	"net/http"

	"msod/internal/explain"
	"msod/internal/server"
)

// handleExplain resolves /v1/explain/{requestID} across the cluster.
// A request ID does not hash to a shard (the decision was routed by
// its *user*, which the ID does not reveal), so the query fans out to
// every shard and the one holding the record answers. Like the other
// introspection fan-outs it requires the full cluster up before
// reporting "not found" — with a shard down, the record may simply be
// unreachable, and a confident 404 would misstate provenance.
func (g *Gateway) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id, ok := server.LookupID(r, server.ExplainPath)
	if !ok {
		errorJSON(w, http.StatusBadRequest, "request ID required: GET "+server.ExplainPath+"{requestID}")
		return
	}
	hits := scatterLookup(g, w, r, lookup{
		what:       "explain",
		downWhy:    "the record may live on the down shard",
		incomplete: "explain fan-out incomplete",
		unproven:   "record absence unproven",
		notFound:   fmt.Sprintf("no shard holds an explain record for request ID %s (rotated out of every ring, or never decided here)", id),
	}, func(ctx context.Context, _ string, c *server.Client) (explain.Record, error) {
		return c.ExplainCtx(ctx, id)
	})
	// Exactly one shard executed the decision, so at most one hit
	// exists; misses (404) from the others are expected.
	if len(hits) > 0 {
		w.Header().Set("X-Msod-Shard", hits[0].shard)
		writeJSON(w, http.StatusOK, hits[0].val)
	}
}
