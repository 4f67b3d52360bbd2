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
//	gate → read → claim → parse → decide → publish → respond
//
// over one per-request value, in serveDecision. DESIGN.md § "The
// shard's decision pipeline" has the why of the order.

// decisionCall is the pipeline's per-request value: each stage reads
// what the stages before it left and fills in its own part.
type decisionCall struct {
	// Wire is the request as decoded.
	Wire DecisionRequest
	// Request is Wire as the PDP takes it: context parsed, roles typed
	// (parse).
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
	// the PDP's decision.
	err    error
	status int
	dec    pdp.Decision
	// d is the one description of the decision (describe) that the
	// decision ring's two lookups and the decision log render.
	d explain.Decision
}

// readDecisionCall is the read stage: the trace ID, the bounded body
// (ReadBody) and the wire decode with its trailing-bytes check
// (DecodeDecisionRequest; a trace ID minted for a request without a
// traceparent ends the string its text is decoded into). A failure
// comes with the status and the message to answer: 413 past the body
// cap, 400 for anything else wrong with the bytes the caller sent.
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
	if traced {
		c.TraceID = traceID
	}
	return 0, nil
}

// parse is the parse stage, after the claim, so that a replay pays for
// none of it: the context parse and the role conversion, into Request,
// which carries the wire's context and roles as their text too
// (ContextText, RoleText) for the decision's events. A failure is
// answered 400.
func (c *decisionCall) parse() error {
	ctx, err := bctx.Parse(c.Wire.Context)
	if err != nil {
		// bctx's error quotes the offending text, as long as the
		// request allows: the answer carries a bounded prefix of it.
		return fmt.Errorf("context: %s", obsv.Prefix(err.Error()))
	}
	c.Request = pdp.Request{
		Credentials: c.Wire.Credentials,
		User:        rbac.UserID(c.Wire.User),
		// A shard decides only for the subject a gateway routes on.
		Routed:      rbac.UserID(c.Wire.RoutingSubject()),
		Roles:       toRoles(c.Wire.Roles),
		RoleText:    c.Wire.Roles,
		Operation:   rbac.Operation(c.Wire.Operation),
		Target:      rbac.Object(c.Wire.Target),
		Context:     ctx,
		ContextText: c.Wire.Context,
		Environment: c.Wire.Environment,
	}
	return nil
}

// answer is the 200 answer to this call, as views: the PDP's decision
// with the subject it resolved (the request's user and roles, or the
// CVS's), the denial's text describe rendered, the engine's bound
// names, the trace ID, and the request ID of a decision the ring
// explains.
func (c *decisionCall) answer() answer {
	dec := &c.dec
	a := answer{
		allowed: dec.Allowed, phase: c.d.Phase, reason: c.d.Reason, user: c.d.User,
		roles: answerList{roles: dec.Roles}, traceID: c.d.TraceID,
	}
	if c.dc.xrec != nil {
		a.requestID = c.d.RequestID
	}
	if m := dec.MSoD; m != nil {
		a.recorded, a.purged, a.matched = int(m.Recorded), int(m.Purged), m.MatchedPolicies
		a.activated.names, a.closed.names = m.Activated(), m.Closed()
	}
	return a
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
		s.refuseRequest(w, status, err)
		return
	}
	// claim. A duplicate RequestID replays the committed response rather
	// than re-deciding — re-execution would double-record ADI history
	// and re-run last-step purges.
	var id string
	if !advisory {
		id = c.Wire.RequestID
	}
	// committed is the answer as the idempotency cache keeps it: built
	// before the cache's lock is taken, and owning its text.
	var committed idemEntry
	if id != "" {
		if cached, replay := s.idem.begin(id); replay {
			// A replay serves the committed execution's answer, written
			// by the writer of the first (and its explain record stays
			// the queryable one); it still counts as a served request for
			// the SLO.
			s.metrics.idempotentReplays.Add(1)
			s.score(http.StatusOK, 0)
			a := cached.answer(id)
			writeAnswer(w, &a)
			return
		}
		// The claim is resolved on every way out, a panic in decide
		// included (net/http recovers it and drops the connection): an
		// entry left in flight is never evicted and would hang every
		// retry under the same ID. Without a committed response,
		// resolving releases the ID so a retry re-executes.
		defer func() { s.idem.finish(id, committed) }()
	}
	// parse. A malformed context is the caller's error, as the read's
	// are; under a claimed ID, finish releases the claim with nothing
	// committed, so a corrected retry under that ID executes.
	if err := c.parse(); err != nil {
		s.refuseRequest(w, http.StatusBadRequest, err)
		return
	}
	s.decide(r.Context(), &c, decide)
	var a answer
	if c.err == nil {
		if a = c.answer(); id != "" {
			committed = packAnswer(id, &a)
		}
	}
	s.publish(r.Context(), &c)
	if c.err != nil { // respond
		WriteJSON(w, c.status, errorResponse{c.err.Error()})
		return
	}
	writeAnswer(w, &a)
}

// refuseRequest answers what is wrong with what the caller sent:
// counted, not scored.
func (s *Server) refuseRequest(w http.ResponseWriter, status int, err error) {
	s.metrics.requestErrors.Add(1)
	WriteJSON(w, status, errorResponse{err.Error()})
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
// leaves the outcome in c: the decision, or the error and its status;
// and the description of either.
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
		c.status, c.dec = http.StatusOK, dec
	}
	c.describe(start, elapsed)
}

// describe fills c.d, the decision's one description: the subject the
// PDP resolved (the claim when it resolved none), the context in its
// canonical spelling, and the outcome; an MSoD denial's text is
// rendered here, once. The request ID keys the decision's provenance:
// the caller's idempotency RequestID when one was sent, the trace ID
// otherwise — echoed in the answer, so the caller (or msodctl) can
// fetch GET /v1/explain/{requestID}. An advisory has none.
func (c *decisionCall) describe(start time.Time, elapsed time.Duration) {
	dec := &c.dec
	c.d = explain.Decision{
		TraceID: string(c.TraceID), Time: start, Elapsed: elapsed,
		User: string(dec.User), Roles: dec.Roles,
		Operation: c.Wire.Operation, Target: c.Wire.Target, Context: c.Request.Context.Spelled(c.Request.ContextText),
		Outcome: explain.OutcomeDeny, Phase: string(dec.Phase), Reason: dec.Reason(),
		Advisory: c.advisory,
	}
	if m := dec.MSoD; m != nil {
		c.d.MatchedPolicies, c.d.Recorded, c.d.Purged = m.MatchedPolicies, int(m.Recorded), int(m.Purged)
		c.d.Terminated = m.Closed()
	}
	if !c.advisory {
		if c.d.RequestID = c.Wire.RequestID; c.d.RequestID == "" {
			c.d.RequestID = c.d.TraceID
		}
	}
	switch {
	case c.err != nil:
		c.d.User, c.d.Outcome, c.d.Reason = c.Wire.User, explain.OutcomeError, c.err.Error()
	case dec.Allowed:
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
		s.metrics.observe(&c.dec, c.advisory)
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
			slog.Bool("allowed", c.dec.Allowed),
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
