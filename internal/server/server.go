// Package server exposes a PDP over HTTP+JSON, and a matching client,
// realising the distributed heterogeneous deployment the paper targets:
// PEPs anywhere in the virtual organisation submit decision requests
// carrying signed credentials and the business context instance, and the
// central PDP answers grant/deny while maintaining the retained ADI.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"msod/internal/credential"
	"msod/internal/explain"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/rbac"
	"msod/internal/trace"
)

// API paths.
const (
	// DecisionPath serves access control decisions.
	DecisionPath = "/v1/decision"
	// AdvicePath serves side-effect-free advisory decisions
	// (pdp.PDP.Advise): same request/response shape as DecisionPath.
	AdvicePath = "/v1/advice"
	// ManagementPath serves §4.3 retained-ADI management.
	ManagementPath = "/v1/management"
	// HealthPath reports liveness and policy identity.
	HealthPath = "/v1/health"
)

// DecisionRequest is the wire form of a decision request.
type DecisionRequest struct {
	// User is the initiator. It must be the credentials' subject when
	// both are given: the shard answers 421 otherwise (RoutingSubject).
	User        string                  `json:"user,omitempty"`
	Roles       []string                `json:"roles,omitempty"`
	Credentials []credential.Credential `json:"credentials,omitempty"`
	Operation   string                  `json:"operation"`
	Target      string                  `json:"target"`
	Context     string                  `json:"context"`
	Environment map[string]string       `json:"environment,omitempty"`
	// RequestID, when non-empty, makes the decision idempotent: the PDP
	// caches the committed response under this ID and replays it when
	// the same ID arrives again — the retry path for a PEP or gateway
	// whose transport timed out after the shard may already have
	// committed the grant's ADI records. Ignored on the advisory path,
	// which has no side effects to protect.
	RequestID string `json:"requestID,omitempty"`
}

// RoutingSubject is the user the request is about, as a gateway routes
// it and every shard holds its PDP to (pdp.Request.Routed): the user,
// else the first non-empty credential holder, else empty.
func (r *DecisionRequest) RoutingSubject() string {
	if r.User != "" {
		return r.User
	}
	for i := range r.Credentials {
		if h := r.Credentials[i].Holder; h != "" {
			return h
		}
	}
	return ""
}

// DecisionResponse is the wire form of a decision, the type a client
// decodes an answer into. The shard does not build one: writeAnswer
// writes these members from the decision itself.
type DecisionResponse struct {
	Allowed bool     `json:"allowed"`
	Phase   string   `json:"phase"`
	Reason  string   `json:"reason,omitempty"`
	User    string   `json:"user"`
	Roles   []string `json:"roles,omitempty"`
	// Recorded and Purged echo the retained-ADI effects of a grant.
	Recorded int `json:"recorded,omitempty"`
	Purged   int `json:"purged,omitempty"`
	// Activated lists bound context instances this grant STARTED (the
	// FirstStep of an MSoD policy committed its opening record). The
	// cluster gateway tells every other shard to open them too, on the
	// next request it sends each (see closes.go), so FirstStep-gated
	// recording holds cluster-wide.
	Activated []string `json:"activated,omitempty"`
	// Closed lists bound context instances this grant TERMINATED (the
	// LastStep of an MSoD policy was granted and this shard purged its
	// slice of them; Purged counts this shard's records only). The
	// cluster gateway tells every other shard to close them too, on the
	// next request it sends each (see closes.go).
	Closed []string `json:"closed,omitempty"`
	// MatchedPolicies is how many MSoD policies applied.
	MatchedPolicies int `json:"matchedPolicies,omitempty"`
	// TraceID correlates this response with the server's slow-log
	// line and the audit-trail record of the same decision. It echoes
	// the caller's Traceparent header trace ID when one was sent
	// (minted fresh otherwise); a replayed idempotent response carries
	// the trace ID of the execution that actually committed.
	TraceID string `json:"traceID,omitempty"`
	// RequestID is the key under which this decision's provenance
	// record is queryable (GET /v1/explain/{requestID}): the caller's
	// idempotency RequestID when one was sent, the trace ID otherwise.
	// Empty on advisories (side-effect-free, not explained) and when
	// explain recording is disabled.
	RequestID string `json:"requestID,omitempty"`
}

// ManagementWireRequest is the wire form of a management operation.
type ManagementWireRequest struct {
	User           string                  `json:"user,omitempty"`
	Roles          []string                `json:"roles,omitempty"`
	Credentials    []credential.Credential `json:"credentials,omitempty"`
	Operation      string                  `json:"operation"`
	ContextPattern string                  `json:"contextPattern,omitempty"`
	TargetUser     string                  `json:"targetUser,omitempty"`
	Before         *time.Time              `json:"before,omitempty"`
}

// ManagementWireResponse is the wire form of a management result.
type ManagementWireResponse struct {
	Removed int `json:"removed"`
	Records int `json:"records"`
}

// errorResponse is the wire form of request failures.
type errorResponse struct {
	Error string `json:"error"`
}

// Server is the HTTP front end of a PDP. Everything it holds but the
// PDP — the idempotency cache, the decision ring, the applied opens and
// closes, the counters — outlives a SetPDP.
type Server struct {
	backend atomic.Pointer[backend]
	mux     *http.ServeMux
	metrics metrics
	idem    *idemCache
	start   time.Time

	// decisions is the one record of recent decisions, served at
	// /v1/explain/{requestID} and /v1/traces/{traceID}; nil when
	// disabled (explainCap < 0). slo, when set, scores every request
	// against the declared objectives (see WithSLO).
	decisions  *explain.Ring
	explainCap int
	slo        *obsv.SLO

	// traces is the tail sampler choosing the span trees the decision
	// ring keeps; nil when disabled (see WithTraceStore).
	traces *trace.Store

	// runtime samples Go runtime health (goroutines, heap, GC pauses)
	// on every /v1/metrics scrape.
	runtime *obsv.RuntimeStats

	// log + slowLog drive the per-decision structured log line (see
	// WithDecisionLog); gauges are operator extras on /v1/metrics.
	log     *slog.Logger
	slowLog time.Duration
	gauges  []extraGauge

	// verify, when non-nil, is the -verify-policies boot-gate outcome
	// surfaced on /v1/health and /v1/metrics (see WithPolicyVerification).
	verify *VerificationStatus

	// Introspection surface: the broker backs /v1/events and the
	// sentinel guards the audit chain (see internal/inspect); /v1/state
	// is the backend's.
	broker             *inspect.Broker
	sentinel           *inspect.Sentinel
	sentinelFailClosed bool

	// Admission control (WithAdmissionLimit): at most maxInFlight
	// decision/advisory/management requests run concurrently; excess
	// load is shed with 503 + Retry-After of shedRetryAfter.
	maxInFlight    int
	inFlight       atomic.Int64
	shedRetryAfter time.Duration

	// degraded latches read-only mode after a durable-store write
	// failure (see admission.go): decisions and management refuse,
	// advisories and introspection keep serving.
	degraded atomic.Bool

	// handoff enables the resharding handoff surface (see handoff.go /
	// WithHandoff) and, with it, the closes a gateway's requests carry
	// (closes.go); off by default. applied remembers the opens and closes
	// applied.
	handoff bool
	applied appliedEntries
}

// backend is the PDP a server decides with and the inspector over its
// engine and retained ADI, which backs /v1/state.
type backend struct {
	pdp       *pdp.PDP
	inspector *inspect.Inspector
}

// Option configures a Server.
type Option func(*Server)

// WithDecisionLog installs a structured logger for decisions: every
// decision or advisory slower than threshold emits one line carrying
// the trace ID, subject, outcome, and per-stage span breakdown. A
// zero threshold logs every decision — useful for tests and debug,
// far too chatty for a production decision rate.
func WithDecisionLog(logger *slog.Logger, threshold time.Duration) Option {
	return func(s *Server) {
		s.log = logger
		s.slowLog = threshold
	}
}

// WithGauge adds an operator-supplied gauge to /v1/metrics, read at
// scrape time. The daemon registers durable-store disk size and
// recovery duration this way, keeping the server package free of
// storage knowledge.
func WithGauge(name, help string, fn func() float64) Option {
	return func(s *Server) {
		s.gauges = append(s.gauges, extraGauge{name: name, help: help, fn: fn})
	}
}

// New wraps a PDP.
func New(p *pdp.PDP, opts ...Option) *Server {
	s := &Server{mux: http.NewServeMux(), idem: newIdemCache(idemCacheSize), start: time.Now(), runtime: obsv.NewRuntimeStats()}
	s.metrics.init()
	for _, opt := range opts {
		opt(s)
	}
	if s.explainCap >= 0 {
		s.decisions = explain.NewRing(s.explainCap)
	} else {
		s.traces = nil // nothing would hold what it keeps
	}
	s.SetPDP(p)
	s.mux.HandleFunc(DecisionPath, s.handleDecision)
	s.mux.HandleFunc(AdvicePath, s.handleAdvice)
	s.mux.HandleFunc(ManagementPath, s.handleManagement)
	s.mux.HandleFunc(HealthPath, s.handleHealth)
	s.mux.HandleFunc(MetricsPath, s.handleMetrics)
	s.mux.HandleFunc(StateUsersPath, s.handleState)
	s.mux.HandleFunc(StateContextsPath, s.handleState)
	s.mux.HandleFunc(EventsPath, s.handleEvents)
	s.mux.Handle(ExplainPath, s.explainLookup())
	s.mux.Handle(TracesPath, s.tracesLookup())
	s.mux.HandleFunc(ReplicaSnapshotPath, s.handleReplicaSnapshot)
	s.mux.HandleFunc(HandoffUsersPath, s.handleHandoffUsers)
	s.mux.HandleFunc(HandoffImportPath, s.handleHandoffImport)
	s.mux.HandleFunc(HandoffReleasePath, s.handleHandoffRelease)
	s.mux.HandleFunc(ActivationPath, s.handleActivation)
	return s
}

// SetPDP has the server decide with p from its next request on: a
// daemon's policy reload. What the server remembers of the requests it
// served stays, so a retry of a decision answered before the swap
// replays that answer.
func (s *Server) SetPDP(p *pdp.PDP) {
	s.backend.Store(&backend{pdp: p, inspector: inspect.NewInspector(p.Engine(), p.Store(), s.broker)})
}

// ServeHTTP implements http.Handler. The opens and closes a gateway's
// request carries (closes.go) are applied first, whatever the request is
// — closes on a handoff-capable shard only — and the answer acknowledges
// the opens once all are applied: the handler then reads a retained ADI
// in which those context instances have started or ended.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if carried := r.Header[CloseHeader]; len(carried) > 0 && s.applyCarried(carried) {
		w.Header()[ActivationAckHeader] = activationAck
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	s.serveDecision(w, r, s.backend.Load().pdp.DecideCtx, false)
}

func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request) {
	s.serveDecision(w, r, s.backend.Load().pdp.AdviseCtx, true)
}

func (s *Server) handleManagement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return
	}
	// Management mutates the retained ADI (purges), so it shares the
	// decision path's read-only refusal.
	if !s.gate(w, gateAdmit|gateReadOnly) {
		return
	}
	defer s.release()
	var wire ManagementWireRequest
	if status, err := decodeBody(w, r, &wire); err != nil {
		WriteJSON(w, status, errorResponse{fmt.Sprintf("decode: %v", err)})
		return
	}
	req := pdp.ManagementRequest{
		Credentials:    wire.Credentials,
		User:           rbac.UserID(wire.User),
		Roles:          toRoles(wire.Roles),
		Operation:      rbac.Operation(wire.Operation),
		ContextPattern: wire.ContextPattern,
		TargetUser:     rbac.UserID(wire.TargetUser),
	}
	if wire.Before != nil {
		req.Before = *wire.Before
	}
	res, err := s.backend.Load().pdp.Manage(req)
	s.metrics.managementOps.Add(1)
	if err != nil {
		WriteJSON(w, s.failureStatus(err, http.StatusForbidden), errorResponse{err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, ManagementWireResponse{Removed: res.Removed, Records: res.Records})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.degraded.Load() {
		// Live (the process answers) but wounded: load balancers should
		// drain decision traffic while operators keep introspection.
		status = "degraded-readonly"
	}
	body := map[string]string{
		"status": status,
		"policy": s.backend.Load().pdp.PolicyID(),
	}
	if s.verify != nil {
		// The boot gate refuses error findings, so a serving process
		// with the gate on is by construction running a verified policy.
		body["policyVerification"] = "verified"
	}
	WriteJSON(w, http.StatusOK, body)
}

// maxBodyBytes bounds every JSON body this package reads whole: the
// request bodies of the decision, advice, management and activation
// handlers, and on the client side the health response, a POST's answer
// and an error answer's body.
const maxBodyBytes = 1 << 20

// ReadBody reads a request body into one slice — of the declared length
// when there is one, never past maxBodyBytes, with spare bytes of
// capacity beyond it for a caller that will append. A failure comes with
// the status to answer: 413 past the cap, 400 for a body that ends
// short of its declared length.
func ReadBody(w http.ResponseWriter, r *http.Request, spare int) ([]byte, int, error) {
	var body []byte
	var err error
	switch n := r.ContentLength; {
	case n > maxBodyBytes:
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body of %d bytes exceeds the %d-byte limit", n, maxBodyBytes)
	case n >= 0:
		body = make([]byte, n, int(n)+spare)
		_, err = io.ReadFull(r.Body, body)
	default: // chunked: the length is known only by reading
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	}
	if err == nil {
		return body, 0, nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, http.StatusRequestEntityTooLarge, err
	}
	return nil, http.StatusBadRequest, err
}

// decodeBody reads a request body (see ReadBody) and unmarshals it into
// v; anything wrong with the JSON — bytes after the first value
// included, which a streaming Decoder would have ignored — is a 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	body, status, err := ReadBody(w, r, 0)
	if err != nil {
		return status, err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return http.StatusBadRequest, err
	}
	return 0, nil
}

// jsonContentType is the Content-Type value of every JSON body the
// shard answers with, its client sends and the gateway forwards: one
// shared value, never rebuilt per request. SetJSONContentType hands it
// out capacity-clipped, so a header that gains a second value copies
// instead of writing into it.
var jsonContentType = [1]string{"application/json"}

// SetJSONContentType marks h as carrying JSON, with the shared value.
func SetJSONContentType(h http.Header) { h["Content-Type"] = jsonContentType[:1:1] }

// WriteJSON answers status with v as JSON, for the shard's errors and
// its endpoints other than a decision's 200 (writeAnswer), and for the
// gateway. HTML escaping is off: a '<', '>' or '&' an answer echoes
// from its request is one byte on the wire, as in the request, not the
// six of \u003c.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	SetJSONContentType(w.Header())
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func toRoles(in []string) []rbac.RoleName {
	out := make([]rbac.RoleName, len(in))
	for i, r := range in {
		out[i] = rbac.RoleName(r)
	}
	return out
}

func fromRoles(in []rbac.RoleName) []string {
	out := make([]string, len(in))
	for i, r := range in {
		out[i] = string(r)
	}
	return out
}
