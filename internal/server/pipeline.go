package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/explain"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/rbac"
)

// The shard's decision pipeline: POST /v1/decision and /v1/advice run
//
//	gate → read → claim → decide → publish → respond
//
// over one per-request value, in serveDecision. DESIGN.md § "The
// shard's decision pipeline" has the why of the order.

// decisionCall is the pipeline's per-request value: each stage reads
// what the stages before it left and fills in its own part.
type decisionCall struct {
	// Wire is the request as decoded.
	Wire DecisionRequest
	// Request is Wire as the PDP takes it: context parsed, roles typed.
	Request pdp.Request
	// TraceID is the caller's traceparent trace ID (the gateway's, or a
	// PEP's own), or one minted here: every request is traced, so the
	// response, the slow-log line and the audit-trail record share a
	// correlation key.
	TraceID  obsv.TraceID
	advisory bool

	// dc is the context the decision ran under (decide), with its trace
	// and the explain entry the engine fills.
	dc *decisionContext
	// The outcome: either err with the status it is answered with, or
	// resp.
	err    error
	status int
	resp   DecisionResponse
	// d is the one description of the decision (describe) that the
	// decision ring's two lookups and the decision log render.
	d explain.Decision
}

// readDecisionCall is the read stage: the trace ID, the bounded body
// (ReadBody), the wire decode with its trailing-bytes check
// (DecodeDecisionRequest; a trace ID minted for a request without a
// traceparent ends the string its text is decoded into), the context
// parse and the role conversion. A failure comes with the status and
// the message to answer: 413 past the body cap, 400 for anything else
// wrong with what the caller sent.
func readDecisionCall(w http.ResponseWriter, r *http.Request, c *decisionCall) (int, error) {
	traceID, traced := obsv.ParseTraceparent(r.Header.Get(obsv.TraceparentHeader))
	body, status, err := ReadBody(w, r, 0)
	if err == nil {
		status = http.StatusBadRequest
		c.TraceID, err = decodeRequest(body, &c.Wire, !traced)
	}
	if err != nil {
		return status, fmt.Errorf("decode: %v", err)
	}
	ctx, err := bctx.Parse(c.Wire.Context)
	if err != nil {
		// bctx's error quotes the offending text, as long as the
		// request allows: the answer carries a bounded prefix of it.
		return http.StatusBadRequest, fmt.Errorf("context: %s", obsv.Prefix(err.Error()))
	}
	c.Request = pdp.Request{
		Credentials: c.Wire.Credentials,
		User:        rbac.UserID(c.Wire.User),
		Roles:       toRoles(c.Wire.Roles),
		Operation:   rbac.Operation(c.Wire.Operation),
		Target:      rbac.Object(c.Wire.Target),
		Context:     ctx,
		Environment: c.Wire.Environment,
	}
	if traced {
		c.TraceID = traceID
	}
	return 0, nil
}

// response is the wire form of the PDP's decision on this call. The
// RequestID is the caller's to set: only an explained decision has one.
// A subject from the body answers the roles decoded from it, which are
// the ones the PDP decided on; one from credentials answers the CVS's.
func (c *decisionCall) response(dec pdp.Decision) DecisionResponse {
	resp := DecisionResponse{
		Allowed: dec.Allowed,
		Phase:   string(dec.Phase),
		Reason:  dec.Reason(),
		User:    string(dec.User),
		Roles:   c.Wire.Roles,
		TraceID: string(c.TraceID),
	}
	if len(c.Request.Credentials) > 0 {
		resp.Roles = fromRoles(dec.Roles)
	}
	if dec.MSoD != nil {
		resp.Recorded = dec.MSoD.Recorded
		resp.Purged = dec.MSoD.Purged
		resp.MatchedPolicies = dec.MSoD.MatchedPolicies
		resp.Activated = boundNames(dec.MSoD.Activated())
		resp.Closed = boundNames(dec.MSoD.Closed())
	}
	return resp
}

// boundNames renders bound context instances for the wire; none is nil,
// so the member is omitted.
func boundNames(bounds []bctx.Name) []string {
	if len(bounds) == 0 {
		return nil
	}
	out := make([]string, len(bounds))
	for i, bound := range bounds {
		out[i] = bound.String()
	}
	return out
}

func (s *Server) serveDecision(w http.ResponseWriter, r *http.Request, decide func(context.Context, pdp.Request) (pdp.Decision, error), advisory bool) {
	if r.Method != http.MethodPost {
		WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return
	}
	// gate. Fail-closed on a tampered trail: a history that no longer
	// verifies cannot back any history-dependent answer, advisories
	// included. Read-only is for decisions alone: a PDP that cannot
	// record grants must not grant, but advisories are side-effect-free
	// and read the (intact, in-memory) retained ADI.
	checks := gateAdmit | gateTampered
	if !advisory {
		checks |= gateReadOnly
	}
	if !s.gate(w, checks) {
		s.score(http.StatusServiceUnavailable, 0)
		return
	}
	defer s.release()
	// read. What is wrong with the caller's bytes is counted, not scored.
	c := decisionCall{advisory: advisory}
	if status, err := readDecisionCall(w, r, &c); err != nil {
		s.metrics.requestErrors.Add(1)
		WriteJSON(w, status, errorResponse{err.Error()})
		return
	}
	// A cluster shard decides only for the subject it was routed on.
	if s.handoff {
		c.Request.Routed = rbac.UserID(c.Wire.RoutingSubject())
	}
	// answer is the response once the decision committed: one heap copy
	// that the encoder and, under a RequestID, the idempotency cache
	// share.
	var answer *DecisionResponse
	// claim. A duplicate RequestID replays the committed response rather
	// than re-deciding — re-execution would double-record ADI history
	// and re-run last-step purges.
	if id := c.Wire.RequestID; !advisory && id != "" {
		if cached, replay := s.idem.begin(id); replay {
			// A replay serves the committed execution's response (and its
			// explain record stays the queryable one); it still counts as
			// a served request for the SLO.
			s.metrics.idempotentReplays.Add(1)
			s.score(http.StatusOK, 0)
			WriteJSON(w, http.StatusOK, cached)
			return
		}
		// The claim is resolved on every way out, a panic in decide
		// included (net/http recovers it and drops the connection): an
		// entry left in flight is never evicted and would hang every
		// retry under the same ID. Without a committed response,
		// resolving releases the ID so a retry re-executes.
		defer func() { s.idem.finish(id, answer) }()
	}
	s.decide(r.Context(), &c, decide)
	if c.err == nil {
		answer = new(DecisionResponse)
		*answer = c.resp
	}
	s.publish(r.Context(), &c)
	if c.err != nil { // respond
		WriteJSON(w, c.status, errorResponse{c.err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, answer)
}

// decisionContext is the context a decision runs under: the request's,
// with the decision's trace, explain entry and WAL sync waiter, in one
// allocation. The trace answers the key of every layer that records
// spans into it: obsv's, and the Tracer keys of core and adi, which
// cannot import obsv. The waiter takes a durable grant's sync out of
// the engine and commit locks; the PDP waits on it before answering.
type decisionContext struct {
	context.Context
	trace obsv.Trace
	xrec  *explain.Entry // nil on advisories and with explain off
	sync  adi.SyncWaiter
}

func (c *decisionContext) Value(key any) any {
	switch key {
	case obsv.TraceKey, core.TracerKey, adi.TracerKey:
		return &c.trace
	case adi.SyncKey:
		return &c.sync
	case core.ExplainerKey:
		if c.xrec != nil {
			return c.xrec
		}
	}
	return c.Context.Value(key)
}

// decide runs the PDP under the request's trace and explain entry and
// leaves the outcome in c: the answer, or the error and its status; and
// the description of either.
func (s *Server) decide(ctx context.Context, c *decisionCall, pdpDecide func(context.Context, pdp.Request) (pdp.Decision, error)) {
	c.dc = &decisionContext{Context: ctx}
	c.dc.trace.Init(c.TraceID)
	if !c.advisory && s.decisions != nil {
		c.dc.xrec = s.decisions.Begin()
	}
	start := time.Now()
	dec, err := pdpDecide(c.dc, c.Request)
	elapsed := time.Since(start)
	if c.err = err; err != nil {
		c.status = s.failureStatus(err, http.StatusInternalServerError)
	} else {
		c.status, c.resp = http.StatusOK, c.response(dec)
	}
	c.describe(start, elapsed)
	if c.dc.xrec != nil && err == nil {
		c.resp.RequestID = c.d.RequestID
	}
}

// describe fills c.d, the decision's one description: the subject the
// PDP resolved (the claim when it resolved none), the context in its
// canonical spelling, and the outcome. The request ID keys the
// decision's provenance: the caller's idempotency RequestID when one
// was sent, the trace ID otherwise — echoed in the response, so the
// caller (or msodctl) can fetch GET /v1/explain/{requestID}. An
// advisory has none.
func (c *decisionCall) describe(start time.Time, elapsed time.Duration) {
	r := &c.resp
	c.d = explain.Decision{
		TraceID: string(c.TraceID), Time: start, Elapsed: elapsed,
		User: r.User, Roles: r.Roles,
		Operation: c.Wire.Operation, Target: c.Wire.Target, Context: c.Request.Context.Spelled(c.Wire.Context),
		Outcome: explain.OutcomeDeny, Phase: r.Phase, Reason: r.Reason,
		MatchedPolicies: r.MatchedPolicies, Recorded: r.Recorded, Purged: r.Purged,
		Advisory: c.advisory, Terminated: r.Closed,
	}
	if !c.advisory {
		if c.d.RequestID = c.Wire.RequestID; c.d.RequestID == "" {
			c.d.RequestID = c.d.TraceID
		}
	}
	switch {
	case c.err != nil:
		c.d.User, c.d.Outcome, c.d.Reason = c.Wire.User, explain.OutcomeError, c.err.Error()
	case r.Allowed:
		c.d.Outcome = explain.OutcomeGrant
	}
}

// publish shows one decided request — error or answer — to every sink,
// in the one order they are fed: the latency and stage histograms, the
// tail sampler and the decision ring, the SLO, the counters, the slow
// log. The ring's lookups and the log line render c.d; none builds a
// description of its own.
func (s *Server) publish(ctx context.Context, c *decisionCall) {
	d := &c.d
	spans := c.dc.trace.AppendSpans(make([]obsv.Span, 0, 8)) // on the stack
	s.metrics.duration.ObserveExemplar(d.Elapsed, d.TraceID)
	s.metrics.observeStages(spans)
	s.file(c, spans)
	s.score(c.status, d.Elapsed)
	if c.err != nil {
		s.metrics.requestErrors.Add(1)
	} else {
		s.metrics.observe(c.resp, c.advisory)
	}
	if !s.slowLogEnabled(d.Elapsed) {
		return
	}
	// The request's strings go in bounded (obsv.AppendBounded): whole,
	// they would make the line as long as the request.
	level, msg := slog.LevelInfo, "decision"
	attrs := obsv.AppendBounded(append(make([]slog.Attr, 0, 14), slog.String("traceID", d.TraceID)), "user", d.User)
	if c.err != nil {
		level, msg = slog.LevelWarn, "decision error"
		attrs = obsv.AppendBounded(append(attrs, slog.Bool("advisory", d.Advisory)), "error", d.Reason)
	} else {
		attrs = obsv.AppendBounded(attrs, "operation", d.Operation)
		attrs = obsv.AppendBounded(attrs, "target", d.Target)
		attrs = obsv.AppendBounded(attrs, "context", d.Context)
		attrs = append(attrs,
			slog.Bool("allowed", c.resp.Allowed),
			slog.String("phase", d.Phase),
			slog.Bool("advisory", d.Advisory))
	}
	attrs = append(attrs, slog.Float64("seconds", d.Elapsed.Seconds()), obsv.SpanAttrs(spans))
	s.log.LogAttrs(ctx, level, msg, attrs...)
}

// score is the SLO's one rule: an answer below 400 is a good request (a
// slow one still spends the latency budget), a 5xx is an availability
// error, and a 4xx — the caller's error — is not an availability event
// and is not counted at all.
func (s *Server) score(status int, elapsed time.Duration) {
	if status < 400 || status >= 500 {
		s.slo.Observe(elapsed, status >= 500)
	}
}
