package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	mrand "math/rand"
	"net/http"
	"strconv"
	"time"

	"msod/internal/obsv"
	"msod/internal/server"
)

// handleRouted serves /v1/decision and /v1/advice: route to the owning
// shard, retry transport errors against that same shard only, and fail
// closed when the shard cannot answer. Re-routing is deliberately
// impossible: serving user U from a second shard would evaluate MSoD
// against a partial retained ADI and could grant what a complete
// history denies.
//
// The gateway forwards the PEP's bytes and the shard's answer as they
// are (see admitRouted); it reads of either only what routing needs.
// Two guards make the routing trustworthy:
//
//   - One routing rule, applied before the send: the routing key is the
//     request's server.DecisionRequest.RoutingSubject; while a handoff
//     window is open, a key whose owner its next ring changes is refused
//     503 (see inTransit); and every shard refuses with a 421, before it
//     evaluates anything, a request that resolves to another subject,
//     which is forwarded like any shard refusal. The answer's resolved
//     subject is still echo-checked: an answer for another subject can
//     only come from a shard of an older release, and is withheld with
//     a 502 that queues none of its opens or closes (enqueueLifecycle
//     runs where writeAnswer does).
//
//   - Idempotent retries: a decision (path server.DecisionPath) that
//     carries no requestID gets one spliced in before the first send,
//     so every retry reaches the shard under the same ID and a retry
//     after a transport failure that struck post-commit replays the
//     shard's committed response instead of double-recording ADI
//     history.
//
// A decision's shard calls share one deadline, between 63/64 of
// cfg.Timeout and all of it from the first attempt, retries and their
// backoff included: an attempt that times out leaves no time for
// another, and a PEP is answered within about that bound whatever
// Retries is. Decisions routed close together share the deadline's
// context, so none makes a timer of its own. A PEP that hangs up does
// not cut them short: the answer, and the activations and closes it
// carries, still reach the outbox (see decisionContext).
func (g *Gateway) handleRouted(w http.ResponseWriter, r *http.Request, path string) {
	body, peek, traceparent, ok := g.admitRouted(w, r)
	if !ok {
		return
	}
	// A grant's opens and closes are carried to the other shards under
	// its requestID (§5e): one too long to carry is refused before a
	// shard can commit a step the others would never hear of.
	if path == server.DecisionPath && !server.RequestIDFits(peek.RequestID) {
		g.metrics.badRequests.Add(1)
		errorJSON(w, http.StatusBadRequest, fmt.Sprintf("requestID of %d bytes is too long to carry to the other shards", len(peek.RequestID)))
		return
	}
	g.routeDecision(w, r, body, peek, traceparent, path)
}

// requestIDSpare is the capacity a read body keeps free for the
// requestID member routeDecision may splice in: its name, 32 hex
// digits, the quotes.
const requestIDSpare = 64

// admitRouted performs the shared request admission for the routed
// paths: method check, the bounded read of the body, the peek at it
// for the routing key (through the scanner the shard decodes with, so
// the two cannot disagree about which member is the user), and the
// decision's traceparent. A false return means the refusal has been
// written.
func (g *Gateway) admitRouted(w http.ResponseWriter, r *http.Request) ([]byte, server.RequestPeek, string, bool) {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST required")
		return nil, server.RequestPeek{}, "", false
	}
	body, status, err := server.ReadBody(w, r, requestIDSpare)
	var peek server.RequestPeek
	if err == nil {
		status = http.StatusBadRequest
		peek, err = server.PeekDecisionRequest(body)
	}
	if err != nil {
		g.metrics.badRequests.Add(1)
		errorJSON(w, status, fmt.Sprintf("decode: %v", err))
		return nil, server.RequestPeek{}, "", false
	}
	if peek.Subject == "" {
		g.metrics.badRequests.Add(1)
		errorJSON(w, http.StatusBadRequest, "request has no routable subject (user or credential holder)")
		return nil, server.RequestPeek{}, "", false
	}
	// The gateway is where the trace is born: a PEP's valid traceparent
	// is passed on as it came (W3C passthrough), any other is replaced
	// by one minted here. Every attempt of the decision carries the same
	// value, so all of them correlate under one trace ID, which the
	// shard stamps into the DecisionResponse and the audit-trail record.
	traceparent := r.Header.Get(obsv.TraceparentHeader)
	if _, ok := obsv.ParseTraceparent(traceparent); !ok {
		traceparent = obsv.NewTraceparent()
	}
	return body, peek, traceparent, true
}

// routeDecision is the owner-routed tail of handleRouted: everything
// after admission, from ring lookup through retries to the response.
// Every attempt POSTs the same bytes under the same traceparent to
// path; a decision records, an advisory (server.AdvicePath) does not.
func (g *Gateway) routeDecision(w http.ResponseWriter, r *http.Request, body []byte, peek server.RequestPeek, traceparent, path string) {
	key, record := peek.Subject, path == server.DecisionPath
	// admitRouted validated the traceparent: its trace ID is a substring.
	traceID, _ := obsv.ParseTraceparent(traceparent)
	start := time.Now()
	if !g.admitCluster(w) {
		return
	}
	defer g.admission.release()
	// The read side of the quiesce barrier: held for the request's full
	// duration (retries included), so a handoff that has opened its
	// window can wait out every request admitted before it. The window
	// check below runs AFTER this acquisition — a request that slept on
	// the barrier reads the window it missed.
	g.traffic.RLock()
	defer g.traffic.RUnlock()
	// Nothing records before the shards agree on which instances run: the
	// activations a previous gateway queued died with it (activation.go).
	if record && !g.booted.Load() {
		// The sync's own requests carry the decision's trace ID.
		if err := g.bootSync(obsv.WithTrace(r.Context(), obsv.NewTrace(traceID))); err != nil {
			g.refuse(w, traceID, key, "", http.StatusServiceUnavailable, g.cfg.ShedRetryAfter,
				fmt.Sprintf("activation sync before the first decision failed (%v); failing closed", err),
				fmt.Sprintf("the gateway has not yet synced the shards' running context instances (%v); failing closed, retry after the hinted delay", err))
			return
		}
	}
	// The window is read before the owner: see inTransit.
	moving := g.inTransit(key)
	shard, ok := g.ring.Lookup(key)
	if ok && moving {
		g.metrics.handoffRefusals.Add(1)
		reason := fmt.Sprintf("user %q is mid-handoff (its owner is changing and its history is in transit between shards); refusing rather than deciding on partial history", key)
		g.refuse(w, traceID, key, shard, http.StatusServiceUnavailable, g.cfg.ShedRetryAfter, reason, reason)
		return
	}
	if !ok {
		g.refuse(w, traceID, key, "", http.StatusServiceUnavailable, 0, "no shards in ring", "no shards in ring")
		return
	}
	if !g.checker.Up(shard) {
		g.refuse(w, traceID, key, shard, http.StatusServiceUnavailable, 0, "owning shard down; failing closed",
			fmt.Sprintf("shard %s (owner of user %q) is down; failing closed", shard, key))
		return
	}
	if !g.breaker.Allow(shard) {
		g.metrics.broken.Add(1)
		g.refuse(w, traceID, key, shard, http.StatusServiceUnavailable, g.breaker.RetryAfter(shard), "circuit breaker open; failing closed",
			fmt.Sprintf("shard %s (owner of user %q) circuit open after repeated transport failures; failing closed", shard, key))
		return
	}
	client, _ := g.client(shard)
	g.metrics.routed.Add(1)
	// minted is the requestID spliced in for a PEP that sent none.
	var minted [32]byte
	haveMinted := false
	if record && peek.RequestID == "" {
		// Without entropy the decision goes out without an ID rather than
		// fail: retries are then not idempotent, as for a PEP without one.
		var id [len(minted) / 2]byte
		if _, err := rand.Read(id[:]); err == nil {
			hex.Encode(minted[:], id[:])
			body = peek.SpliceRequestID(body, string(minted[:]))
			haveMinted = true
		}
	}

	// The decision's one deadline is read at its first attempt: what it
	// waited for above — the admission pool, the quiesce barrier, the
	// activation sync — is not charged to it.
	ctx := g.decisionContext()
	var lastErr error
	backoff := g.cfg.RetryBackoff
	for attempt := 0; attempt <= g.cfg.Retries; attempt++ {
		if attempt > 0 {
			// Context-aware, jittered backoff: a spent deadline stops
			// retrying immediately, and the ±25% jitter keeps a
			// recovering shard from being hit by a synchronized wave of
			// retries from every waiting request.
			if !sleepContext(ctx, jitterBackoff(backoff)) {
				break
			}
			backoff *= 2
			if !g.checker.Up(shard) || g.breaker.State(shard) == BreakerOpen {
				break // went down while we backed off; stop hammering
			}
			g.metrics.retries.Add(1) // counted once it is sent
		}
		answer, err := client.PostRaw(ctx, path, traceparent, body)
		var resp server.AnswerPeek
		if err == nil {
			// An answer the gateway cannot read is a shard that failed, not
			// a verdict: it is never forwarded, and the retry below asks
			// again under the same requestID.
			if resp, err = server.PeekDecisionAnswer(answer, key); err != nil {
				err = fmt.Errorf("server: decode response: %w", err)
			}
		}
		if err == nil {
			g.breaker.Success(shard)
			// Every shard of this release refuses a subject other than
			// the routing key with a 421 before it commits; an answer
			// for another subject comes from an older one, decided
			// against another user's history, and is withheld.
			if resp.User != key {
				g.metrics.misrouted.Add(1)
				g.refuse(w, traceID, key, shard, http.StatusBadGateway, 0,
					fmt.Sprintf("answer withheld: shard resolved subject %q, routed on %q", obsv.Prefix(resp.User), obsv.Prefix(key)),
					fmt.Sprintf("shard %s resolved the subject to %q; withholding the answer: the request was routed on %q, so it was evaluated against another user's history",
						shard, obsv.Prefix(resp.User), obsv.Prefix(key)))
				return
			}
			// A granted FirstStep started its context instances, a granted
			// LastStep closed them, on this shard only; the others are told
			// on the next request each is sent (closes.go). A peer that
			// missed an activation would treat the instance as not started
			// and grant its users' later operations unrecorded — a false
			// grant — so an activation that cannot be queued withholds the
			// grant fail-closed (see activation.go). Here and nowhere
			// earlier: an answer that was withheld above queues nothing.
			if record && (len(resp.Activated) > 0 || len(resp.Closed) > 0) {
				requestID := peek.RequestID
				if haveMinted {
					requestID = string(minted[:])
				}
				if len(resp.Activated) > 0 {
					g.metrics.activationFanouts.Add(1)
				}
				if qerr := g.enqueueLifecycle(shard, requestID, resp.Activated, resp.Closed); qerr != nil {
					g.metrics.activationWithheld.Add(1)
					g.refuse(w, traceID, key, shard, http.StatusServiceUnavailable, g.cfg.ShedRetryAfter,
						fmt.Sprintf("grant withheld: context activation not queued (%v)", qerr),
						fmt.Sprintf("decision started context instance(s) %v but %v; withholding the grant fail-closed, retry after the hinted delay",
							resp.Activated, qerr))
					return
				}
			}
			g.logDecision(traceID, resp, shard, attempt, time.Since(start))
			writeAnswer(w, answer)
			return
		}
		if errors.Is(err, server.ErrAnswerTooLarge) {
			// The shard answered, only past what the gateway reads: asking
			// again gets the same answer, and the shard has not failed. A
			// grant it committed stays, deny-safe, as for a withheld
			// misrouted answer.
			g.refuse(w, traceID, key, shard, http.StatusBadGateway, 0, "answer withheld: past the read limit",
				fmt.Sprintf("shard %s answered past the gateway's read limit (%v); withholding the answer", shard, err))
			return
		}
		var apiErr *server.APIError
		if errors.As(err, &apiErr) {
			// The shard answered deliberately (bad context, no subject,
			// forbidden, shedding): forward its verdict — including any
			// Retry-After hint — and do not retry.
			g.breaker.Success(shard)
			if apiErr.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(int(apiErr.RetryAfter/time.Second)))
			}
			errorJSON(w, apiErr.Status, apiErr.Message)
			return
		}
		lastErr = err
		g.checker.ReportFailure(shard, err)
		g.breaker.Failure(shard)
	}
	g.refuse(w, traceID, key, shard, http.StatusServiceUnavailable, 0,
		fmt.Sprintf("shard unreachable (%v); failing closed", lastErr),
		fmt.Sprintf("shard %s unreachable (%v); failing closed", shard, lastErr))
}

// decisionContext returns the deadline a routed decision's shard calls
// share, every attempt and backoff of the decision included. Decisions
// routed close together share one context, so a decision makes no timer
// of its own, and the Transport registers each round trip under a
// parent whose children map and Done channel already exist. The
// current one is reused while at least Timeout − Timeout/64 of it is
// left, and replaced otherwise, so a decision's deadline falls between
// 63/64 of Timeout and all of it after this call — never later, so the
// shard client's own timeout, which is Timeout, adds no timer either
// (Client.reqContext).
//
// The context hangs off context.Background, not the request: once
// admitted, a decision runs to its answer whether or not the PEP is
// still connected. A PEP that hangs up after the shard committed a
// FirstStep would otherwise abandon the answer, and with it the
// activation the peers must be told of — they would grant, unrecorded,
// what the started instance forbids — and the abandoned attempt would
// be charged to the shard as a transport failure. Nor does Close cancel
// it: its own timer ends it.
func (g *Gateway) decisionContext() context.Context {
	now := time.Now()
	if d := g.deadline.Load(); d != nil {
		if at, _ := d.ctx.Deadline(); at.Sub(now) >= g.cfg.Timeout-g.cfg.Timeout/64 {
			return d.ctx
		}
	}
	d := &sharedDeadline{}
	d.ctx, d.cancel = context.WithDeadline(context.Background(), now.Add(g.cfg.Timeout))
	g.deadline.Store(d)
	return d.ctx
}

// writeAnswer forwards a shard's 200 body as it came.
func writeAnswer(w http.ResponseWriter, body []byte) {
	server.SetJSONContentType(w.Header())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// jitterBackoff spreads one backoff delay uniformly over ±25%, so
// retries from many concurrent requests against the same recovering
// shard don't land as one synchronized wave.
func jitterBackoff(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d*3/4 + time.Duration(mrand.Int63n(int64(d)/2+1))
}

// sleepContext waits out d unless the context ends first, reporting
// whether the full wait completed.
func sleepContext(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// logDecision emits the structured per-decision line when the
// decision was at least SlowLog slow (a zero threshold logs all).
func (g *Gateway) logDecision(traceID obsv.TraceID, resp server.AnswerPeek, shard string, attempt int, elapsed time.Duration) {
	if g.cfg.Logger == nil || elapsed < g.cfg.SlowLog {
		return
	}
	allowed, phase := resp.Verdict()
	attrs := append(make([]slog.Attr, 0, 8), slog.String("traceID", string(traceID)), slog.String("shard", shard))
	attrs = append(obsv.AppendBounded(attrs, "user", resp.User),
		slog.Bool("allowed", allowed),
		slog.String("phase", phase),
		slog.Int("attempts", attempt+1),
		slog.Float64("seconds", elapsed.Seconds()))
	g.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "decision", attrs...)
}

// refuse writes a refusal routeDecision itself produced — a fail-closed
// 503 (counted in msodgw_unavailable_total) or a withheld misrouted
// answer (502) — with the Retry-After hint when one is given, and logs
// it as a warning: these are operational events regardless of any
// slow-log threshold. The line carries the routing key and the reason
// bounded (obsv.AppendBounded): the key is as long as the request body
// allows, and a refused line must not be.
func (g *Gateway) refuse(w http.ResponseWriter, traceID obsv.TraceID, key, shard string, status int, retryAfter time.Duration, reason, msg string) {
	if status == http.StatusServiceUnavailable {
		g.metrics.unavailable.Add(1)
	}
	if g.cfg.Logger != nil {
		attrs := obsv.AppendBounded(append(make([]slog.Attr, 0, 6), slog.String("traceID", string(traceID))), "user", key)
		attrs = obsv.AppendBounded(append(attrs, slog.String("shard", shard)), "reason", reason)
		g.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "refused", attrs...)
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfterCeil(retryAfter), 10))
	}
	errorJSON(w, status, msg)
}
