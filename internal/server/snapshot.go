package server

import (
	"net/http"
	"strings"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/rbac"
)

// ReplicaSnapshotPath serves the export half of a resharding handoff
// (GET): a consistent dump of the retained-ADI subtrees of the users a
// required `users` query parameter (comma separated) names, so a
// handoff moves exactly the users whose ring ownership changes.
const ReplicaSnapshotPath = "/v1/replica/snapshot"

// SnapshotRecord is the wire form of one retained-ADI record in a
// handoff snapshot.
type SnapshotRecord struct {
	User      string    `json:"user"`
	Roles     []string  `json:"roles,omitempty"`
	Operation string    `json:"op"`
	Target    string    `json:"target"`
	Context   string    `json:"ctx"`
	Time      time.Time `json:"time"`
}

// NewSnapshotRecord converts a retained-ADI record to its wire form.
func NewSnapshotRecord(rec adi.Record) SnapshotRecord {
	return SnapshotRecord{
		User:      string(rec.User),
		Roles:     fromRoles(rec.Roles),
		Operation: string(rec.Operation),
		Target:    string(rec.Target),
		Context:   rec.Context.String(),
		Time:      rec.Time,
	}
}

// ADIRecord converts the wire form back into a retained-ADI record,
// reporting a parse failure on a malformed context (the handoff import
// path).
func (sr SnapshotRecord) ADIRecord() (adi.Record, error) {
	ctxName, err := bctx.Parse(sr.Context)
	if err != nil {
		return adi.Record{}, err
	}
	return adi.Record{
		User:      rbac.UserID(sr.User),
		Roles:     toRoles(sr.Roles),
		Operation: rbac.Operation(sr.Operation),
		Target:    rbac.Object(sr.Target),
		Context:   ctxName,
		Time:      sr.Time,
	}, nil
}

// ReplicaSnapshot is the named users' retained ADI, as one commit left
// it.
type ReplicaSnapshot struct {
	// Policy is the donor's policy ID; a recipient refuses to import
	// history kept under a different policy.
	Policy string `json:"policy"`
	// Users is the scope of the dump: Records holds exactly these users'
	// retained ADI (some may have no records at all).
	Users []string `json:"users,omitempty"`
	// Records is the users' retained ADI.
	Records []SnapshotRecord `json:"records"`
}

// parseUsersParam splits a comma-separated users query value, dropping
// empties.
func parseUsersParam(v string) []string {
	if strings.TrimSpace(v) == "" {
		return nil
	}
	var out []string
	for _, u := range strings.Split(v, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// handleReplicaSnapshot dumps the named users' retained ADI under the
// PDP's commit lock, so no decision commits between the reads of two
// users. Decisions block for the duration of the dump, which is scoped
// to the users a handoff moves.
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET required"})
		return
	}
	users := parseUsersParam(r.URL.Query().Get("users"))
	if users == nil {
		WriteJSON(w, http.StatusBadRequest, errorResponse{"users required: GET " + ReplicaSnapshotPath + "?users=u1,u2"})
		return
	}
	if !s.gate(w, gateTampered) {
		// A tampered donor must not seed a recipient with history it
		// cannot vouch for.
		return
	}
	p := s.backend.Load().pdp
	snap := ReplicaSnapshot{Policy: p.PolicyID(), Users: users}
	var recs []adi.Record
	p.WithCommitLock(func() {
		for _, u := range users { // users with no records contribute nothing
			recs = append(recs, p.Store().UserRecords(rbac.UserID(u), bctx.Universal)...)
		}
	})
	for _, rec := range recs {
		snap.Records = append(snap.Records, NewSnapshotRecord(rec))
	}
	WriteJSON(w, http.StatusOK, snap)
}
