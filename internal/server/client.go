package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"msod/internal/bctx"
	"msod/internal/credential"
	"msod/internal/explain"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/rbac"
	"msod/internal/trace"
)

// APIError is a response the server produced deliberately: a non-2xx
// status with (usually) an errorResponse body. Callers that need the
// status — the cluster gateway forwarding a shard's verdict, a PEP
// distinguishing "denied" from "unreachable" — unwrap it with
// errors.As; transport failures (refused connections, timeouts) are
// never APIErrors.
type APIError struct {
	// Path is the API path that produced the error.
	Path string
	// Status is the HTTP status code.
	Status int
	// Message is the server's error payload, if it sent one.
	Message string
	// RetryAfter is the server's Retry-After hint (zero when absent).
	// A 429/503 carrying it is load shedding — transient by contract —
	// and the client retries it transparently (see WithShedRetries); a
	// 503 without it (shard down, degraded read-only) is terminal.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s: %s (status %d)", e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("server: %s: status %d", e.Path, e.Status)
}

// newAPIError builds the typed error for a non-2xx response, decoding
// the errorResponse body (no more than maxBodyBytes of it) and the
// Retry-After header (whole seconds). A body cut at the limit, which
// cannot decode, is named in the Message rather than passed on as no
// message at all; one that is no errorResponse leaves it empty.
func newAPIError(path string, resp *http.Response) *APIError {
	apiErr := &APIError{Path: path, Status: resp.StatusCode}
	var e errorResponse
	body := &io.LimitedReader{R: resp.Body, N: maxBodyBytes}
	switch err := json.NewDecoder(body).Decode(&e); {
	case err == nil:
		apiErr.Message = e.Error
	case body.N == 0:
		apiErr.Message = fmt.Sprintf("error answer past the %d-byte read limit", maxBodyBytes)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	return apiErr
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTimeout bounds every request the client makes with a per-request
// deadline. Zero (the default) means no deadline — but any PEP calling
// a remote PDP should set one: a stalled PDP otherwise blocks the PEP,
// and with it the business process, indefinitely.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithShedRetries sets how many times a POST the server shed with
// 429/503 + Retry-After is transparently retried after waiting out the
// hint (default 2; 0 disables). Shed responses are refused before any
// processing, so the retry is safe even for recording decisions.
func WithShedRetries(n int) ClientOption {
	return func(c *Client) { c.shedRetries = n }
}

// Client is a remote PEP's view of the PDP: it submits decision and
// management requests over HTTP and satisfies workflow.Decider, so the
// workflow engine can run against a remote PDP unchanged.
type Client struct {
	base string
	// decisionURL and adviceURL are base+DecisionPath and base+AdvicePath,
	// parsed once (nil when they do not parse, and the error is then the
	// call's): a gateway posts every routed decision to one of them.
	decisionURL *url.URL
	adviceURL   *url.URL
	http        *http.Client
	timeout     time.Duration
	shedRetries int
	// Credentials, when set, are attached to every decision request
	// (the PEP presenting the user's signed attributes).
	Credentials []credential.Credential
	// Outbox, when set, holds the context-instance opens and closes still
	// to be told to the server this client talks to (closes.go): every
	// request carries what is pending. The cluster gateway sets one on
	// each of its shard clients; a PEP's client has none.
	Outbox *Outbox
}

// NewClient builds a client for the PDP at base (e.g.
// "http://127.0.0.1:8443"). A nil httpClient uses http.DefaultClient.
// Of httpClient, every request but the event stream uses the Transport
// and the Timeout only (see send).
func NewClient(base string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: base, http: httpClient, shedRetries: 2}
	c.decisionURL, _ = url.Parse(base + DecisionPath)
	c.adviceURL, _ = url.Parse(base + AdvicePath)
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// reqContext derives the context bounding one unary request from the
// caller's context: the shorter of the client's timeout (WithTimeout)
// and the Timeout of the http.Client it was built over. A caller whose
// own deadline comes no later — the deadline a gateway's routed
// decisions share, which ends within the gateway's timeout of a
// decision's first attempt, or a fan-out's — is bounded by that alone:
// a second timer would never fire first.
func (c *Client) reqContext(parent context.Context) (context.Context, context.CancelFunc) {
	d := c.timeout
	if t := c.http.Timeout; t > 0 && (d <= 0 || t < d) {
		d = t
	}
	if d <= 0 {
		return parent, noCancel
	}
	if deadline, ok := parent.Deadline(); ok && time.Until(deadline) <= d {
		return parent, noCancel
	}
	return context.WithTimeout(parent, d)
}

// noCancel is the CancelFunc of a request bounded by its caller's
// context alone.
func noCancel() {}

// postURL is path's URL on this client's server: the one parsed when the
// client was built for a decision or an advisory, parsed now for any
// other path. Requests share it, and no RoundTripper may modify it.
func (c *Client) postURL(path string) (*url.URL, error) {
	switch {
	case path == DecisionPath && c.decisionURL != nil:
		return c.decisionURL, nil
	case path == AdvicePath && c.adviceURL != nil:
		return c.adviceURL, nil
	}
	return url.Parse(c.base + path)
}

// identityEncoding and noUserAgent are header values every POST shares.
// An Accept-Encoding of the request's own keeps the Transport from
// adding its gzip offer through a header map of its own: a shard never
// compresses its answer. An empty User-Agent is sent as no header at
// all: a shard never reads it.
var (
	identityEncoding = [1]string{"identity"}
	noUserAgent      = [1]string{""}
)

// postAttempt is what one POST attempt allocates besides the Request,
// its Header, the body's closer and its rewind: the reader over the
// body and the Traceparent value, in one object.
type postAttempt struct {
	body        []byte
	reader      bytes.Reader
	traceparent [1]string
}

// getBody rewinds the attempt's body: the Transport calls it to resend
// a request whose reused connection failed before it was written.
func (a *postAttempt) getBody() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(a.body)), nil
}

// newPost builds one POST of body to path under ctx: what
// http.NewRequestWithContext builds, over a URL the client parsed once,
// with the JSON Content-Type, the traceparent when there is one, and
// the two headers that keep the Transport from adding its own.
//
// The body stays an io.NopCloser over a *bytes.Reader: net/http
// recognises that as a known in-memory body and sends it with the
// headers in one write, where any other ReadCloser is copied through a
// buffer of its own.
func (c *Client) newPost(ctx context.Context, path, traceparent string, body []byte) (*http.Request, error) {
	u, err := c.postURL(path)
	if err != nil {
		return nil, err
	}
	a := &postAttempt{body: body, traceparent: [1]string{traceparent}}
	a.reader.Reset(body)
	h := make(http.Header, 4)
	SetJSONContentType(h)
	h["Accept-Encoding"] = identityEncoding[:1:1]
	h["User-Agent"] = noUserAgent[:1:1]
	if traceparent != "" {
		h[obsv.TraceparentHeader] = a.traceparent[:]
	}
	// The Request's context is unexported: WithContext copies this
	// template, on the stack, into the one Request the attempt allocates.
	tmpl := http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(&a.reader),
		GetBody:       a.getBody,
		ContentLength: int64(len(body)),
		Host:          u.Host,
	}
	return tmpl.WithContext(ctx), nil
}

// send is the one way a request leaves the client — and so the one
// place the Outbox's pending opens and closes are attached to it and,
// when it ends, settled (Outbox.settle): a close is delivered once the
// server answered, given up when the transport failed; an open is
// delivered once the answer acknowledges it, and carried again
// otherwise. The caller closes the response body.
//
// A unary request (everything but the event stream) goes straight to
// the RoundTripper, bounded by reqContext: http.Client.Do would first
// prepare for a redirect this API never sends — a clone of the headers
// and the means to copy them onto the next request, five allocations a
// hop. What Do did that matters is kept: a URL's userinfo becomes basic
// auth, the client's Timeout is in reqContext, and a 3xx comes back as
// a response like any other non-200 — an *APIError to every caller. The
// client's Jar and CheckRedirect are not consulted. The event stream is
// long-lived and keeps Do.
func (c *Client) send(req *http.Request, unary bool) (*http.Response, error) {
	var carried uint64
	var opens bool
	if c.Outbox != nil {
		var header []string
		if header, carried, opens = c.Outbox.attach(); header != nil {
			req.Header[CloseHeader] = header
		}
	}
	var resp *http.Response
	var err error
	if unary {
		rt := c.http.Transport
		if rt == nil {
			rt = http.DefaultTransport
		}
		if u := req.URL.User; u != nil {
			password, _ := u.Password()
			req.SetBasicAuth(u.Username(), password)
		}
		resp, err = rt.RoundTrip(req)
	} else {
		resp, err = c.http.Do(req)
	}
	if carried != 0 {
		// A request that carried opens was answered by the shard itself only
		// if the answer acknowledges them; otherwise its closes are in doubt.
		acked := err == nil && len(resp.Header[ActivationAckHeader]) > 0
		c.Outbox.settle(carried, err == nil && (acked || !opens), acked)
	}
	return resp, err
}

// Decision submits a decision request.
func (c *Client) Decision(req DecisionRequest) (DecisionResponse, error) {
	return c.DecisionCtx(context.Background(), req)
}

// DecisionCtx submits a decision request under the caller's context.
// When the context carries an obsv trace, its trace ID is propagated
// to the PDP in the Traceparent header, so the shard's decision,
// slow-log line and audit record correlate with the caller's trace.
func (c *Client) DecisionCtx(ctx context.Context, req DecisionRequest) (DecisionResponse, error) {
	var resp DecisionResponse
	if err := c.post(ctx, DecisionPath, req, &resp); err != nil {
		return DecisionResponse{}, err
	}
	return resp, nil
}

// Advice submits a side-effect-free advisory decision request.
func (c *Client) Advice(req DecisionRequest) (DecisionResponse, error) {
	return c.AdviceCtx(context.Background(), req)
}

// AdviceCtx submits an advisory request under the caller's context
// (see DecisionCtx for trace propagation).
func (c *Client) AdviceCtx(ctx context.Context, req DecisionRequest) (DecisionResponse, error) {
	var resp DecisionResponse
	if err := c.post(ctx, AdvicePath, req, &resp); err != nil {
		return DecisionResponse{}, err
	}
	return resp, nil
}

// Manage submits a management request.
func (c *Client) Manage(req ManagementWireRequest) (ManagementWireResponse, error) {
	return c.ManageCtx(context.Background(), req)
}

// ManageCtx is Manage under the caller's context (the gateway fans one
// operation out to every authoritative shard under a shared deadline).
func (c *Client) ManageCtx(ctx context.Context, req ManagementWireRequest) (ManagementWireResponse, error) {
	var resp ManagementWireResponse
	if err := c.post(ctx, ManagementPath, req, &resp); err != nil {
		return ManagementWireResponse{}, err
	}
	return resp, nil
}

// Health checks liveness and returns the server's policy ID.
func (c *Client) Health() (string, error) {
	ctx, cancel := c.reqContext(context.Background())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+HealthPath, nil)
	if err != nil {
		return "", fmt.Errorf("server: health: %w", err)
	}
	httpResp, err := c.send(httpReq, true)
	if err != nil {
		return "", fmt.Errorf("server: health: %w", err)
	}
	defer httpResp.Body.Close()
	// Read the body tolerantly and check the status first: a failing
	// server may answer with an empty or non-JSON body, and the status
	// code must survive that so callers (the gateway's health checker,
	// msodctl) still see a typed *APIError.
	raw, _ := io.ReadAll(io.LimitReader(httpResp.Body, maxBodyBytes))
	var body map[string]string
	decodeErr := json.Unmarshal(raw, &body)
	if httpResp.StatusCode != http.StatusOK {
		msg := body["status"]
		if msg == "" {
			msg = body["error"]
		}
		return "", &APIError{Path: HealthPath, Status: httpResp.StatusCode, Message: msg}
	}
	if decodeErr != nil {
		return "", fmt.Errorf("server: health decode: %w", decodeErr)
	}
	return body["policy"], nil
}

// Decide implements workflow.Decider against the remote PDP.
func (c *Client) Decide(user rbac.UserID, roles []rbac.RoleName, op rbac.Operation, target rbac.Object, ctx bctx.Name) (bool, string, error) {
	wire := DecisionRequest{
		User:        string(user),
		Roles:       fromRoles(roles),
		Credentials: c.Credentials,
		Operation:   string(op),
		Target:      string(target),
		Context:     ctx.String(),
	}
	resp, err := c.Decision(wire)
	if err != nil {
		return false, "", err
	}
	return resp.Allowed, resp.Reason, nil
}

// UserState fetches the user's retained-ADI state from /v1/state/users.
func (c *Client) UserState(user string) (inspect.UserState, error) {
	var out inspect.UserState
	err := c.get(context.Background(), StateUsersPath+url.PathEscape(user), &out)
	return out, err
}

// ContextState fetches state for a business-context pattern from
// /v1/state/contexts.
func (c *Client) ContextState(pattern string) (inspect.ContextState, error) {
	return c.ContextStateCtx(context.Background(), pattern)
}

// ContextStateCtx is ContextState under the caller's context (the
// gateway merges every authoritative shard's answer under a shared
// deadline).
func (c *Client) ContextStateCtx(ctx context.Context, pattern string) (inspect.ContextState, error) {
	var out inspect.ContextState
	err := c.get(ctx, StateContextsPath+url.PathEscape(pattern), &out)
	return out, err
}

// ErrEventGap reports that a resumed event stream cannot be continued
// without loss: the events after the resume point have left the
// server's ring buffer (or the server restarted and renumbered), or the
// server is a gateway, whose merged stream cannot be resumed at all.
// A consumer can only restart live, knowing events were missed.
// Returned wrapped; test with errors.Is.
var ErrEventGap = errors.New("server: event stream gap: resume point no longer retained")

// followPause is how long FollowEvents waits before it dials again.
const followPause = 500 * time.Millisecond

// FollowEventsOptions configure a followed event stream.
type FollowEventsOptions struct {
	// User, Context, Outcome become the server-side filter parameters.
	User    string
	Context string
	Outcome string
	// Replay asks for up to that many recent retained events on the
	// first connection; a reconnection resumes after the last event
	// delivered instead.
	Replay int
}

// FollowEvents subscribes to the server's decision event stream and
// calls fn for each event. The client's request timeout deliberately
// does not apply — the stream is long-lived; bound it with the context.
// It is the stream's one resume cursor: after a transport failure, a
// clean close or a 5xx answer it waits followPause, dials again and
// resumes just after the last sequence number it delivered
// (Last-Event-ID), so no event is lost or delivered twice. Each line is
// read whole, however long. It returns only when the context ends
// (ctx.Err()), fn returns an error (that error), the server cannot
// resume (ErrEventGap, wrapped: a 410), or the server refuses
// the stream with a 4xx (*APIError — e.g. events not enabled, or a bad
// filter).
func (c *Client) FollowEvents(ctx context.Context, opts FollowEventsOptions, fn func(inspect.DecisionEvent) error) error {
	q := url.Values{}
	for name, v := range map[string]string{"user": opts.User, "context": opts.Context, "outcome": opts.Outcome} {
		if v != "" {
			q.Set(name, v)
		}
	}
	live := c.base + EventsPath
	if len(q) > 0 {
		live += "?" + q.Encode()
	}
	target := live
	if opts.Replay > 0 {
		q.Set("replay", strconv.Itoa(opts.Replay))
		target = c.base + EventsPath + "?" + q.Encode()
	}
	var last uint64 // the last sequence number delivered; 0: none yet
	var fnErr error
	for {
		err := c.streamOnce(ctx, target, last, func(ev inspect.DecisionEvent) error {
			if ev.Seq > 0 {
				last = ev.Seq
			}
			fnErr = fn(ev)
			return fnErr
		})
		var apiErr *APIError
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case fnErr != nil:
			return fnErr
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusGone:
			return fmt.Errorf("%w: %v", ErrEventGap, apiErr)
		case errors.As(err, &apiErr) && apiErr.Status < http.StatusInternalServerError:
			return err // a refusal that retrying will not heal
		}
		target = live
		t := time.NewTimer(followPause)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// streamOnce makes one connection to target and hands deliver each
// event until the stream ends or deliver fails. after, when non-zero, is
// sent as the Last-Event-ID header.
func (c *Client) streamOnce(ctx context.Context, target string, after uint64, deliver func(inspect.DecisionEvent) error) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return fmt.Errorf("server: events: %w", err)
	}
	httpReq.Header.Set("Accept", "text/event-stream")
	if after > 0 {
		httpReq.Header.Set(LastEventIDHeader, strconv.FormatUint(after, 10))
	}
	httpResp, err := c.send(httpReq, false)
	if err != nil {
		return fmt.Errorf("server: events: %w", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return newAPIError(EventsPath, httpResp)
	}
	br := bufio.NewReader(httpResp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return err // io.EOF on a clean close; a line cut short is no event
		}
		// "id:" lines repeat the payload's seq; keep-alive comments and
		// blank separators carry nothing.
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		var ev inspect.DecisionEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("server: events decode: %w", err)
		}
		if err := deliver(ev); err != nil {
			return err
		}
	}
}

// Explain fetches the provenance record of a past decision by its
// requestID (GET /v1/explain/{requestID}). A 404 *APIError means the
// record rotated out of this server's ring — or, against a shard, that
// the decision was executed elsewhere.
func (c *Client) Explain(requestID string) (explain.Record, error) {
	return c.ExplainCtx(context.Background(), requestID)
}

// ExplainCtx is Explain under the caller's context (the gateway fans
// one query out to every shard under a shared deadline).
func (c *Client) ExplainCtx(ctx context.Context, requestID string) (explain.Record, error) {
	var out explain.Record
	err := c.get(ctx, ExplainPath+url.PathEscape(requestID), &out)
	return out, err
}

// Trace fetches the retained span tree of a past decision by its
// trace ID (GET /v1/traces/{traceID}). A 404 *APIError means the
// decision was not sampled, rotated out of this server's ring — or,
// against a shard, that it was executed elsewhere.
func (c *Client) Trace(traceID string) (trace.Record, error) {
	return c.TraceCtx(context.Background(), traceID)
}

// TraceCtx is Trace under the caller's context (the gateway fans one
// query out to every shard under a shared deadline).
func (c *Client) TraceCtx(ctx context.Context, traceID string) (trace.Record, error) {
	var out trace.Record
	err := c.get(ctx, TracesPath+url.PathEscape(traceID), &out)
	return out, err
}

// get performs a GET under the client timeout, decoding a JSON answer.
func (c *Client) get(parent context.Context, path string, out any) error {
	ctx, cancel := c.reqContext(parent)
	defer cancel()
	// An explicit empty body: a RoundTripper that reads every request's
	// body (a canned shard) reads nothing instead of a nil Body.
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, http.NoBody)
	if err != nil {
		return fmt.Errorf("server: get %s: %w", path, err)
	}
	httpResp, err := c.send(httpReq, true)
	if err != nil {
		return fmt.Errorf("server: get %s: %w", path, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return newAPIError(path, httpResp)
	}
	if err := json.NewDecoder(httpResp.Body).Decode(out); err != nil {
		return fmt.Errorf("server: decode response: %w", err)
	}
	return nil
}

// maxShedWait caps how long one shed retry waits, whatever the server
// hinted.
const maxShedWait = 10 * time.Second

// post marshals in, POSTs it (see PostRaw) and unmarshals the answer
// into out. When the context carries an obsv trace, the request carries
// its trace ID in a traceparent.
func (c *Client) post(parent context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("server: marshal request: %w", err)
	}
	var traceparent string
	if id := obsv.TraceIDFrom(parent); id.Valid() {
		traceparent = id.Traceparent()
	}
	answer, err := c.PostRaw(parent, path, traceparent, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(answer, out); err != nil {
		return fmt.Errorf("server: decode response: %w", err)
	}
	return nil
}

// PostRaw POSTs body as it is and returns the bytes of the 200 answer,
// under the client timeout: the gateway forwards a PEP's request and a
// shard's answer this way without decoding either. A non-empty
// traceparent is sent as the request's Traceparent header, as it is:
// the gateway passes on a PEP's, or the one it minted. A response the
// server shed (429/503 with a Retry-After hint) is waited out and
// retried up to the shed-retry budget; every other outcome — success,
// transport failure, or a deliberate verdict (*APIError) including a
// hint-less 503 — returns immediately.
func (c *Client) PostRaw(parent context.Context, path, traceparent string, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		answer, err := c.postOnce(parent, path, traceparent, body)
		if err == nil {
			return answer, nil
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			return nil, err
		}
		shed := apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable
		if !shed || apiErr.RetryAfter <= 0 || attempt >= c.shedRetries {
			return nil, err
		}
		wait := apiErr.RetryAfter
		if wait > maxShedWait {
			wait = maxShedWait
		}
		t := time.NewTimer(wait)
		select {
		case <-parent.Done():
			t.Stop()
			return nil, err
		case <-t.C:
		}
	}
}

// postOnce sends one POST attempt and reads the 200 answer whole, into
// a slice of its declared length when it has a sane one. An answer
// longer than maxBodyBytes is a failed exchange, not a verdict: it is
// never read past the limit, and the error is no *APIError.
func (c *Client) postOnce(parent context.Context, path, traceparent string, body []byte) ([]byte, error) {
	ctx, cancel := c.reqContext(parent)
	defer cancel()
	httpReq, err := c.newPost(ctx, path, traceparent, body)
	if err != nil {
		return nil, fmt.Errorf("server: post %s: %w", path, err)
	}
	httpResp, err := c.send(httpReq, true)
	if err != nil {
		return nil, fmt.Errorf("server: post %s: %w", path, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, newAPIError(path, httpResp)
	}
	var answer []byte
	switch n := httpResp.ContentLength; {
	case n > maxBodyBytes:
		err = ErrAnswerTooLarge
	case n >= 0:
		answer = make([]byte, n)
		_, err = io.ReadFull(httpResp.Body, answer)
	default: // chunked: the length is known only by reading
		if answer, err = io.ReadAll(io.LimitReader(httpResp.Body, maxBodyBytes+1)); err == nil && len(answer) > maxBodyBytes {
			err = ErrAnswerTooLarge
		}
	}
	if err != nil {
		return nil, fmt.Errorf("server: post %s: read response: %w", path, err)
	}
	return answer, nil
}

// ErrAnswerTooLarge reports an answer longer than maxBodyBytes, which
// postOnce will not read whole. Returned wrapped; test with errors.Is.
var ErrAnswerTooLarge = fmt.Errorf("answer exceeds the %d-byte limit", maxBodyBytes)
