package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"msod/internal/server"
	"msod/internal/trace"
)

// handleTraces resolves /v1/traces/{traceID} across the cluster. A
// trace ID does not hash to a shard (the decision was routed by its
// *user*, which the ID does not reveal), so the query fans out to
// every shard; unlike explain — where exactly one shard holds the
// record — the span sets of every shard that saw the trace are merged
// into one assembled tree, each span stamped with the shard it ran
// on. Like the other introspection fan-outs it requires the full
// cluster up before reporting anything — with a shard down, part of
// the tree may be unreachable, and a confident answer (or 404) would
// misstate where the decision spent its time.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id, ok := server.LookupID(r, server.TracesPath)
	if !ok {
		errorJSON(w, http.StatusBadRequest, "trace ID required: GET "+server.TracesPath+"{traceID}")
		return
	}
	hits := scatterLookup(g, w, r, lookup{
		what:       "trace assembly",
		downWhy:    "part of the tree may live on the down shard",
		incomplete: "trace fan-out incomplete",
		unproven:   "trace absence unproven",
		notFound:   fmt.Sprintf("no shard holds a trace for ID %s (not sampled, rotated out of every ring, or never decided here)", id),
	}, func(ctx context.Context, _ string, c *server.Client) (trace.Record, error) {
		return c.TraceCtx(ctx, id)
	})
	if len(hits) > 0 {
		assembled := assembleTrace(hits)
		w.Header().Set("X-Msod-Shard", strings.Join(assembled.Shards, ","))
		server.WriteJSON(w, http.StatusOK, assembled)
	}
}

// assembleTrace merges the span sets returned by every shard that saw
// the trace into one tree: the earliest record anchors the envelope
// (subject, outcome, wall-clock zero), every span is stamped with the
// shard it ran on, offsets are rebased onto the anchor's clock, and
// the merged set is sorted by start offset so a waterfall renders in
// execution order. In the common case exactly one shard decided and
// the merge is the identity plus attribution.
func assembleTrace(hits []shardResult[trace.Record]) trace.Record {
	base := hits[0]
	for _, h := range hits[1:] {
		if h.val.Time.Before(base.val.Time) {
			base = h
		}
	}
	out := base.val
	out.Spans = nil
	out.Shards = nil
	seen := map[string]bool{}
	for _, h := range hits {
		if !seen[h.shard] {
			seen[h.shard] = true
			out.Shards = append(out.Shards, h.shard)
		}
		// Rebase onto the anchor's clock so spans from different
		// shards order sensibly (modulo clock skew).
		skew := h.val.Time.Sub(base.val.Time).Microseconds()
		for _, sp := range h.val.Spans {
			sp.Shard = h.shard
			sp.StartOffsetUS += skew
			out.Spans = append(out.Spans, sp)
		}
	}
	sort.Strings(out.Shards)
	sort.SliceStable(out.Spans, func(i, j int) bool {
		return out.Spans[i].StartOffsetUS < out.Spans[j].StartOffsetUS
	})
	return out
}
