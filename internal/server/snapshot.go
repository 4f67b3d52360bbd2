package server

import (
	"net/http"
	"strings"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/rbac"
)

// ReplicaSnapshotPath serves a consistent retained-ADI dump for replica
// bootstrap and resync (GET). A `users` query parameter (comma
// separated) scopes the dump to those users' retained-ADI subtrees —
// the export half of a resharding handoff, which moves exactly the
// users whose ring ownership changes instead of the whole store.
const ReplicaSnapshotPath = "/v1/replica/snapshot"

// SnapshotRecord is the wire form of one retained-ADI record in a
// replica snapshot.
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
// reporting a parse failure on a malformed context. Both the replica
// mirror (snapshot load) and the handoff import path use this one
// conversion, so a record that round-trips for one round-trips for the
// other.
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

// ReplicaSnapshot is a retained-ADI dump paired with the broker
// sequence number it is consistent with: a mirror that loads Records
// and then applies events with Seq > Seq reconstructs the owner's
// store exactly. A subtree-scoped dump (Users non-empty) carries the
// same consistency point but only the listed users' records.
type ReplicaSnapshot struct {
	// Policy is the owner's policy ID; a replica refuses to follow an
	// owner running a different policy (same events, different
	// semantics).
	Policy string `json:"policy"`
	// Seq is the last event sequence number reflected in Records.
	Seq uint64 `json:"seq"`
	// Users, when non-empty, is the explicit scope of a subtree dump:
	// Records holds exactly these users' retained ADI (some may have no
	// records at all). Empty on a full dump.
	Users []string `json:"users,omitempty"`
	// Records is the retained ADI at Seq (full, or scoped to Users). A
	// full dump also carries the activated context instances, encoded as
	// the records adi appends them as (adi.Activations).
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

// handleReplicaSnapshot dumps the retained ADI under the PDP's commit
// lock, so the captured broker sequence number and store contents are
// consistent with each other — no decision can commit between the two
// reads. Decisions block for the duration of the dump; resyncs are
// rare (bootstrap, stream gap, divergence, handoff import) and handoff
// exports are subtree-scoped, so the trade is acceptable.
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET required"})
		return
	}
	if s.browser == nil || s.broker == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"replica snapshots need state introspection and an event broker"})
		return
	}
	if !s.gate(w, gateTampered) {
		// A tampered owner must not seed replicas with history it cannot
		// vouch for.
		return
	}
	users := parseUsersParam(r.URL.Query().Get("users"))
	snap := ReplicaSnapshot{Policy: s.pdp.PolicyID(), Users: users}
	var recs []adi.Record
	s.pdp.WithCommitLock(func() {
		snap.Seq = s.broker.Seq()
		if users == nil {
			for _, u := range s.browser.UserIDs() {
				recs = append(recs, s.browser.UserRecords(u, bctx.Universal)...)
			}
			recs = append(recs, adi.Activations(s.pdp.Store())...)
		}
		for _, u := range users { // users with no records contribute nothing
			recs = append(recs, s.browser.UserRecords(rbac.UserID(u), bctx.Universal)...)
		}
	})
	for _, rec := range recs {
		snap.Records = append(snap.Records, NewSnapshotRecord(rec))
	}
	writeJSON(w, http.StatusOK, snap)
}
