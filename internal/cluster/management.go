package cluster

import (
	"context"
	"fmt"
	"net/http"

	"msod/internal/pdp"
	"msod/internal/server"
)

// ManagementOutcome is one shard's result of a fanned-out management
// operation. The fan-out is not atomic — shards commit independently —
// so on any failure the gateway reports exactly which shards applied
// the operation and which did not, instead of an opaque error that
// hides partial state from the administrator.
type ManagementOutcome struct {
	Applied bool   `json:"applied"`
	Removed int    `json:"removed,omitempty"`
	Records int    `json:"records,omitempty"`
	Status  int    `json:"status,omitempty"` // shard's HTTP status for deliberate refusals
	Error   string `json:"error,omitempty"`
}

// managementErrorResponse is the error payload of a failed fan-out: the
// usual "error" field (so server.Client surfaces it as APIError.Message)
// plus the per-shard outcomes an administrator needs to reconcile.
type managementErrorResponse struct {
	Error  string                       `json:"error"`
	Shards map[string]ManagementOutcome `json:"shards"`
}

// handleManagement fans a §4.3 management operation out to every
// shard and aggregates the results. It requires the whole cluster up
// before starting: a purge that silently skipped a down shard would
// leave history the administrator believes gone. That up-front check
// races with failures during the fan-out, so any failure after it is
// reported per shard (see ManagementOutcome) — never collapsed into an
// error that implies nothing happened.
func (g *Gateway) handleManagement(w http.ResponseWriter, r *http.Request) {
	var req server.ManagementWireRequest
	if !g.decodePOST(w, r, &req) {
		return
	}
	if !g.admitCluster(w) {
		return
	}
	defer g.admission.release()
	// Management holds the quiesce barrier too, so a handoff waits out
	// in-flight fan-outs; and it is refused outright during a handoff —
	// a purge racing the history stream could resurrect records the
	// administrator believes gone (purged on the donor after export,
	// reborn by the import on the recipient). A user or age purge holds
	// it exclusively, because it re-activates what is still running
	// (below) and no decision may run in between.
	resync := req.Operation == string(pdp.OpPurgeUser) || req.Operation == string(pdp.OpPurgeBefore)
	if resync {
		g.traffic.Lock()
		defer g.traffic.Unlock()
	} else {
		g.traffic.RLock()
		defer g.traffic.RUnlock()
	}
	if g.refuseDuringHandoff(w, "management") {
		return
	}
	// The authoritative shards only: a joining shard owns no users yet
	// and a gone shard owns none anymore, so including either would fail
	// the all-up precondition for membership that holds no history.
	shards := g.shards(authoritative)
	if !g.requireUp(w, shards, "management", "a partial purge would silently keep records") {
		return
	}
	results := scatter(r.Context(), g, shards, func(ctx context.Context, _ string, c *server.Client) (server.ManagementWireResponse, error) {
		return c.ManageCtx(ctx, req)
	})

	var agg server.ManagementWireResponse
	outcomes := make(map[string]ManagementOutcome, len(results))
	failed := 0
	allDeliberate := true
	uniformStatus := 0 // -1 once refusal statuses diverge
	var firstErr string
	for _, res := range results {
		if res.err == nil {
			outcomes[res.shard] = ManagementOutcome{
				Applied: true, Removed: res.val.Removed, Records: res.val.Records,
			}
			agg.Removed += res.val.Removed
			agg.Records += res.val.Records
			continue
		}
		failed++
		if firstErr == "" {
			firstErr = fmt.Sprintf("shard %s: %v", res.shard, res.err)
		}
		if res.api != nil {
			outcomes[res.shard] = ManagementOutcome{Status: res.api.Status, Error: res.api.Message}
			if uniformStatus == 0 {
				uniformStatus = res.api.Status
			} else if uniformStatus != res.api.Status {
				uniformStatus = -1
			}
		} else {
			outcomes[res.shard] = ManagementOutcome{Error: res.err.Error()}
			allDeliberate = false
		}
	}
	if failed == 0 && resync {
		// The purge may have taken the last record of a running instance
		// off one shard, or its activation, while another shard holds
		// some of it; without re-activation the first would grant its
		// users' steps in it unrecorded.
		if err := g.syncActivations(r.Context(), shards); err != nil {
			server.WriteJSON(w, http.StatusBadGateway, managementErrorResponse{
				Error:  fmt.Sprintf("purge applied on all %d shards, but re-activating the instances still running failed (%v); repeat the purge", len(results), err),
				Shards: outcomes,
			})
			return
		}
	}
	if failed == 0 {
		server.WriteJSON(w, http.StatusOK, agg)
		return
	}
	status := http.StatusBadGateway
	msg := fmt.Sprintf("management applied on %d of %d shards (%s); per-shard outcomes in \"shards\"",
		len(results)-failed, len(results), firstErr)
	if failed == len(results) && allDeliberate && uniformStatus > 0 {
		// Every shard refused identically (e.g. the admin lacks the
		// controller role): nothing was applied anywhere, so forward
		// the shards' own verdict rather than a 502.
		status = uniformStatus
		msg = fmt.Sprintf("all %d shards refused (%s)", len(results), firstErr)
	}
	server.WriteJSON(w, status, managementErrorResponse{Error: msg, Shards: outcomes})
}
