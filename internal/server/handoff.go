package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"msod/internal/adi"
	"msod/internal/rbac"
)

// Resharding handoff surface. When cluster membership changes, the
// gateway moves the affected users' retained-ADI subtrees from their
// old owner to their new owner through three endpoints:
//
//   - GET  /v1/handoff/users    — the donor's retained-ADI user list,
//     so the coordinator can compute which users change owner.
//   - POST /v1/handoff/import   — the recipient loads a subtree-scoped
//     ReplicaSnapshot with per-user REPLACE semantics: each user in
//     scope is released first (adi.OpRelease), so a retried import can
//     never double-count history (MSoD over-counts deny, but an import
//     must be exact, and replace makes it idempotent), then the copy is
//     recorded (adi.OpRecord).
//   - POST /v1/handoff/release  — the donor releases the moved users
//     after cutover: their records go, the instances they leave keep
//     running. Failure here is deny-safe: leftover copies on a shard
//     that no longer owns the users only ever add denials.
//
// Both are one batch of ops through pdp.PDP.Apply, atomic with respect
// to decisions and published (an import ends with an OutcomeImport).
//
// The whole surface is opt-in (WithHandoff / msodd -handoff): import
// and release mutate the retained ADI without the management port's
// RBAC check, so a shard must be explicitly run as handoff-capable.
const (
	HandoffUsersPath   = "/v1/handoff/users"
	HandoffImportPath  = "/v1/handoff/import"
	HandoffReleasePath = "/v1/handoff/release"
)

// HandoffUsersResponse lists the users with retained records.
type HandoffUsersResponse struct {
	Policy string   `json:"policy"`
	Users  []string `json:"users"`
}

// HandoffImportResponse reports an import's effects.
type HandoffImportResponse struct {
	// Users is the scope size (including users that carried no records).
	Users int `json:"users"`
	// Records is how many records the import appended.
	Records int `json:"records"`
	// Replaced is how many pre-existing records the per-user replace
	// purged before appending (non-zero on a retried import).
	Replaced int `json:"replaced"`
}

// HandoffReleaseRequest names the users a donor should purge after
// cutover.
type HandoffReleaseRequest struct {
	Users []string `json:"users"`
}

// HandoffReleaseResponse reports a release's effects.
type HandoffReleaseResponse struct {
	Users  int `json:"users"`
	Purged int `json:"purged"`
}

// WithHandoff makes the server a cluster shard: it enables the
// resharding handoff surface and holds each decision to the subject it
// was routed on (a request that resolves to another answers 421 before
// anything is evaluated). Off by default: import and release rewrite
// retained-ADI subtrees on the authority of the gateway alone, so only
// shards deliberately deployed behind one should expose them.
func WithHandoff() Option {
	return func(s *Server) { s.handoff = true }
}

// refuseHandoffDisabled writes the 403 when the surface is off.
func (s *Server) refuseHandoffDisabled(w http.ResponseWriter) bool {
	if s.handoff {
		return false
	}
	WriteJSON(w, http.StatusForbidden,
		errorResponse{"handoff surface disabled: run the shard with -handoff to allow resharding imports"})
	return true
}

// handleHandoffUsers serves the donor-side user list. Read-only, but
// gated with the rest of the surface — the list exists to plan an
// export, and a shard that refuses exports should say so here already.
func (s *Server) handleHandoffUsers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET required"})
		return
	}
	if s.refuseHandoffDisabled(w) {
		return
	}
	if !s.gate(w, gateTampered) {
		return
	}
	p := s.backend.Load().pdp
	resp := HandoffUsersResponse{Policy: p.PolicyID(), Users: []string{}}
	for _, u := range p.Store().UserIDs() {
		resp.Users = append(resp.Users, string(u))
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleHandoffImport loads a subtree-scoped snapshot with per-user
// replace semantics. Refusals are fail-closed and precise: policy
// mismatch is 409 (same records, different semantics), a tampered or
// read-only shard is 503, an unscoped or out-of-scope snapshot is 400.
func (s *Server) handleHandoffImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return
	}
	if s.refuseHandoffDisabled(w) {
		return
	}
	if !s.gate(w, gateTampered|gateReadOnly) {
		return
	}
	var snap ReplicaSnapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		WriteJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("decode: %v", err)})
		return
	}
	if policy := s.backend.Load().pdp.PolicyID(); snap.Policy != policy {
		WriteJSON(w, http.StatusConflict, errorResponse{fmt.Sprintf(
			"policy mismatch: snapshot from policy %q, this shard runs %q — importing history across policies corrupts MSoD state", snap.Policy, policy)})
		return
	}
	if len(snap.Users) == 0 {
		WriteJSON(w, http.StatusBadRequest, errorResponse{"import requires an explicitly user-scoped snapshot (Users non-empty)"})
		return
	}
	// Replace: release every in-scope user first, so records from a
	// previous partial or duplicate import cannot survive alongside the
	// fresh copies, and an instance a released record was the last trace
	// of keeps running here, as it does on the shard the copy came from.
	scope := make(map[rbac.UserID]bool, len(snap.Users))
	ops := make([]adi.Op, 0, len(snap.Users)+1)
	for _, u := range snap.Users {
		scope[rbac.UserID(u)] = true
		ops = append(ops, adi.Op{Kind: adi.OpRelease, User: rbac.UserID(u)})
	}
	recs := make([]adi.Record, 0, len(snap.Records))
	for _, sr := range snap.Records {
		rec, err := sr.ADIRecord()
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("record context %q: %v", sr.Context, err)})
			return
		}
		if !scope[rec.User] {
			// A record outside the declared scope would be appended without
			// the replace purge — a retry could then double it.
			WriteJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf(
				"record for user %q outside the snapshot's declared scope", rec.User)})
			return
		}
		recs = append(recs, rec)
	}
	if len(recs) > 0 {
		ops = append(ops, adi.Op{Kind: adi.OpRecord, Records: recs})
	}
	// A failed import did not land whole: the coordinator must treat the
	// recipient as not having the users.
	eff, ok := s.applyOps(w, "import", "replaced by a resharding handoff import", ops)
	if !ok {
		return
	}
	s.metrics.handoffImports.Add(1)
	s.metrics.handoffRecordsIn.Add(int64(len(recs)))
	WriteJSON(w, http.StatusOK, HandoffImportResponse{Users: len(snap.Users), Records: len(recs), Replaced: eff.Removed})
}

// handleHandoffRelease releases moved users on the donor after cutover.
func (s *Server) handleHandoffRelease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return
	}
	if s.refuseHandoffDisabled(w) {
		return
	}
	if !s.gate(w, gateReadOnly) {
		return
	}
	var req HandoffReleaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("decode: %v", err)})
		return
	}
	if len(req.Users) == 0 {
		WriteJSON(w, http.StatusBadRequest, errorResponse{"release requires at least one user"})
		return
	}
	ops := make([]adi.Op, len(req.Users))
	for i, u := range req.Users {
		ops[i] = adi.Op{Kind: adi.OpRelease, User: rbac.UserID(u)}
	}
	eff, ok := s.applyOps(w, "release", "released by a resharding handoff", ops)
	if !ok {
		return
	}
	s.metrics.handoffReleases.Add(1)
	WriteJSON(w, http.StatusOK, HandoffReleaseResponse{Users: len(req.Users), Purged: eff.Removed})
}

// HandoffUsers fetches a donor's retained-ADI user list.
func (c *Client) HandoffUsers(ctx context.Context) (HandoffUsersResponse, error) {
	var out HandoffUsersResponse
	err := c.get(ctx, HandoffUsersPath, &out)
	return out, err
}

// ReplicaSnapshotUsers fetches a subtree-scoped snapshot: exactly the
// named users' retained ADI, consistent with the returned Seq.
func (c *Client) ReplicaSnapshotUsers(ctx context.Context, users []string) (ReplicaSnapshot, error) {
	var out ReplicaSnapshot
	q := url.Values{"users": []string{strings.Join(users, ",")}}
	err := c.get(ctx, ReplicaSnapshotPath+"?"+q.Encode(), &out)
	return out, err
}

// HandoffImport loads a subtree-scoped snapshot into the shard with
// per-user replace semantics.
func (c *Client) HandoffImport(ctx context.Context, snap ReplicaSnapshot) (HandoffImportResponse, error) {
	var out HandoffImportResponse
	err := c.post(ctx, HandoffImportPath, snap, &out)
	return out, err
}

// HandoffRelease purges the named users from the shard (donor side,
// after cutover).
func (c *Client) HandoffRelease(ctx context.Context, users []string) (HandoffReleaseResponse, error) {
	var out HandoffReleaseResponse
	err := c.post(ctx, HandoffReleasePath, HandoffReleaseRequest{Users: users}, &out)
	return out, err
}
