package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/server"
)

// Response headers stamping the bounded-staleness contract onto every
// replica answer: the owner sequence number the answer reflects, and
// how long ago the replica last heard from the owner. A consumer that
// needs "no older than X" checks the lag; a consumer comparing answers
// across replicas checks the seq.
const (
	ReplicaSeqHeader = "X-Msod-Replica-Seq"
	ReplicaLagHeader = "X-Msod-Replica-Lag"
)

// Server is the HTTP surface of a replica: the advisory and state
// endpoints of a shard (same paths, same wire shapes, plus the
// staleness stamps), health and metrics, and explicit refusals for
// everything authoritative. It serves the paths a shard serves so
// gateways and clients need no special dialect — but a decision or
// management POST gets 421 Misdirected Request, never an answer: a
// replica holds no authority and a "grant" from one would be a false
// grant.
type Server struct {
	follower  *Follower
	inspector *inspect.Inspector
	mux       *http.ServeMux
	start     time.Time

	advisories            atomic.Int64
	stateQueries          atomic.Int64
	staleRefusals         atomic.Int64
	authoritativeRefusals atomic.Int64
}

// NewServer wraps a follower.
func NewServer(f *Follower) *Server {
	s := &Server{
		follower:  f,
		inspector: inspect.NewInspector(f.Mirror().Engine(), f.Mirror().Browser(), nil),
		mux:       http.NewServeMux(),
		start:     time.Now(),
	}
	s.mux.HandleFunc(server.AdvicePath, s.handleAdvice)
	s.mux.HandleFunc(server.StateUsersPath, s.handleState)
	s.mux.HandleFunc(server.StateContextsPath, s.handleState)
	s.mux.HandleFunc(server.HealthPath, s.handleHealth)
	s.mux.HandleFunc(server.MetricsPath, s.handleMetrics)
	s.mux.HandleFunc(server.DecisionPath, s.refuseAuthoritative)
	s.mux.HandleFunc(server.ManagementPath, s.refuseAuthoritative)
	// Explain records live where the decision executed; a replica never
	// executed one, so it refuses like the other authoritative paths.
	s.mux.HandleFunc(server.ExplainPath, s.refuseAuthoritative)
	// Likewise traces: a replica retains no span trees of its own, and
	// serving an empty 404 would look like rotation rather than the
	// truth — the decision (and its trace) lives on the owner.
	s.mux.HandleFunc(server.TracesPath, s.refuseAuthoritative)
	// The resharding handoff surface is authoritative by nature: an
	// import into (or a release from) a replica would fork the
	// retained-ADI history off the owner's. 421, same as decisions.
	s.mux.HandleFunc(server.HandoffUsersPath, s.refuseAuthoritative)
	s.mux.HandleFunc(server.HandoffImportPath, s.refuseAuthoritative)
	s.mux.HandleFunc(server.HandoffReleasePath, s.refuseAuthoritative)
	s.mux.HandleFunc(server.EventsPath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "replicas do not re-serve the event stream; subscribe to the owner at " + s.follower.Owner(),
		})
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// stamp writes the staleness-contract headers for the current state.
func (s *Server) stamp(w http.ResponseWriter) {
	st := s.follower.Status()
	w.Header().Set(ReplicaSeqHeader, strconv.FormatUint(st.AppliedSeq, 10))
	w.Header().Set(ReplicaLagHeader, st.Staleness.Round(time.Millisecond).String())
}

// refuseStale answers true after writing the 503 when the replica
// cannot prove freshness. Unlike a shed 503 there is no Retry-After:
// the caller should fail over to the owner now, not wait.
func (s *Server) refuseStale(w http.ResponseWriter) bool {
	if s.follower.Fresh() {
		return false
	}
	s.staleRefusals.Add(1)
	s.stamp(w)
	st := s.follower.Status()
	msg := fmt.Sprintf("replica stale: last owner contact %s ago exceeds the %s bound; ask the owner at %s",
		st.Staleness.Round(time.Millisecond), s.follower.MaxStaleness(), s.follower.Owner())
	if st.Syncing {
		msg = "replica resyncing from the owner; ask the owner at " + s.follower.Owner()
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": msg})
	return true
}

// refuseAuthoritative rejects decision/management traffic outright.
func (s *Server) refuseAuthoritative(w http.ResponseWriter, r *http.Request) {
	s.authoritativeRefusals.Add(1)
	writeJSON(w, http.StatusMisdirectedRequest, map[string]string{
		"error": "replicas never serve authoritative decisions or management; ask the owner at " + s.follower.Owner(),
	})
}

func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return
	}
	if s.refuseStale(w) {
		return
	}
	// The shard's read stage: same body cap, same decoder, same 413/400s.
	var call server.DecisionCall
	if status, err := server.ReadDecisionCall(w, r, &call); err != nil {
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	dec, err := s.follower.Advise(call.Request)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrStale):
			s.staleRefusals.Add(1)
			status = http.StatusServiceUnavailable
		case errors.Is(err, pdp.ErrNoSubject):
			status = http.StatusBadRequest
		}
		s.stamp(w)
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	s.advisories.Add(1)
	s.stamp(w)
	writeJSON(w, http.StatusOK, call.Response(dec))
}

// handleState serves both state endpoints as the shard does (method,
// path and answer), behind this replica's staleness refusal and under
// its stamp.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if s.refuseStale(w) {
		return
	}
	s.stamp(w)
	if server.ServeState(w, r, s.inspector) {
		s.stateQueries.Add(1)
	}
}

// handleHealth reports the replica role explicitly so load balancers
// and the gateway never mistake a replica for an owner: status is
// "replica" when serving, "replica-syncing" / "replica-stale" when
// refusing.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.follower.Status()
	status := "replica"
	switch {
	case st.Syncing:
		status = "replica-syncing"
	case !s.follower.Fresh():
		status = "replica-stale"
	}
	s.stamp(w)
	writeJSON(w, http.StatusOK, map[string]string{
		"status":     status,
		"role":       "replica",
		"policy":     s.follower.Mirror().PolicyID(),
		"owner":      s.follower.Owner(),
		"appliedSeq": strconv.FormatUint(st.AppliedSeq, 10),
		"staleness":  st.Staleness.Round(time.Millisecond).String(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.follower.Status()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obsv.WriteGauge(w, "msod_replica_lag_seconds",
		"Seconds since the replica last heard from its owner (staleness bound input).",
		st.Staleness.Seconds())
	obsv.WriteGauge(w, "msod_replica_applied_seq",
		"Owner broker sequence number the mirror has applied through.",
		float64(st.AppliedSeq))
	obsv.WriteCounter(w, "msod_replica_resyncs_total",
		"Full state resyncs (bootstrap, stream gap, detected divergence).",
		st.Resyncs)
	obsv.WriteCounter(w, "msod_replica_events_applied_total",
		"Owner decision events applied to the mirror.",
		st.Applied)
	obsv.WriteCounter(w, "msod_replica_divergences_total",
		"Apply-time divergences detected (the mirror refused the event and resynced).",
		st.Divergences)
	obsv.WriteGauge(w, "msod_replica_syncing",
		"1 while a full resync is pending or in progress (the replica refuses answers).",
		boolGauge(st.Syncing))
	obsv.WriteGauge(w, "msod_replica_records",
		"Retained-ADI records held by the mirror.",
		float64(st.Records))
	obsv.WriteCounter(w, "msod_replica_advisories_total",
		"Advisory decisions served from the mirror.",
		s.advisories.Load())
	obsv.WriteCounter(w, "msod_replica_state_queries_total",
		"State introspection answers served from the mirror.",
		s.stateQueries.Load())
	obsv.WriteCounter(w, "msod_replica_stale_refusals_total",
		"Answers refused because freshness could not be proven (stale or resyncing).",
		s.staleRefusals.Load())
	obsv.WriteCounter(w, "msod_replica_authoritative_refusals_total",
		"Decision/management requests refused — replicas never serve authority.",
		s.authoritativeRefusals.Load())
	s.follower.applyHist.Write(w, "msod_replica_apply_seconds",
		"Mirror event-apply latency (the replica-side analogue of the owner's store stage).")
	obsv.WriteBuildInfo(w, "msod-replica")
	obsv.WriteUptime(w, s.start)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
