package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msod/internal/obsv"
	"msod/internal/server"
)

// Shard names one PDP backend: a stable identity (the ring hashes the
// ID, never the address) plus its current base URL. A shard that
// restarts on a new address keeps its identity — and its users — via
// Gateway.SetShardAddr.
type Shard struct {
	ID      string
	BaseURL string
}

// Config assembles a Gateway.
type Config struct {
	// Shards is the boot shard topology. Required, non-empty, unique
	// IDs. Membership is no longer fixed after boot: the cluster admin
	// endpoints (POST /v1/cluster/join|drain|remove) grow and shrink it
	// live, moving retained-ADI history with a fail-closed handoff.
	Shards []Shard
	// States optionally seeds each shard's lifecycle state (default
	// ShardActive). The msodgw boot path uses it to restore a persisted
	// topology: only authoritative states (active, draining→active)
	// enter the ring; joining shards are tracked but own nothing.
	States map[string]ShardState
	// Replicas maps a shard ID to the base URLs of its advisory read
	// replicas (msodd -replica-of instances following that shard).
	// Optional. When present, advisory and state reads for users owned
	// by that shard are served replica-first with owner fallback;
	// decisions and management are NEVER routed to a replica — a
	// replica holds no authority and refuses them with 421 anyway.
	Replicas map[string][]string
	// VirtualNodes per shard on the ring (DefaultVirtualNodes if < 1).
	VirtualNodes int
	// Timeout bounds every request to a shard (default 5s).
	Timeout time.Duration
	// Retries is how many times a decision is re-sent to the SAME
	// shard after a transport error (default 2; -1 disables retries).
	// Retries never change the target shard, and every retry of a
	// decision carries the same idempotency RequestID the gateway
	// minted before the first send — a timeout that struck after the
	// shard committed replays the committed response instead of
	// double-recording ADI history.
	Retries int
	// RetryBackoff is the initial delay between retries, doubling each
	// attempt (default 25ms).
	RetryBackoff time.Duration
	// FailAfter is the consecutive-failure threshold that marks a
	// shard Down (default 2).
	FailAfter int
	// BreakerAfter is the consecutive transport-failure threshold that
	// opens a shard's circuit breaker on the request path (default 5).
	// The breaker trips faster than the probe-driven Checker and sheds
	// load off a failing shard between probes.
	BreakerAfter int
	// BreakerCooldown is how long an open circuit refuses traffic
	// before admitting a half-open probe request (default 5s).
	BreakerCooldown time.Duration
	// HTTPClient, when non-nil, is the shared transport for all shard
	// traffic.
	HTTPClient *http.Client
	// Logger, when non-nil, enables structured logging: one line per
	// routed decision at least SlowLog slow (zero logs every routed
	// decision), and a warning for every fail-closed refusal and
	// withheld misrouted answer. Each line carries the decision's
	// trace ID.
	Logger *slog.Logger
	// SlowLog is the slow-decision threshold for Logger (see above).
	SlowLog time.Duration
	// MaxInflight bounds concurrently routed decision, advisory and
	// management requests across the WHOLE cluster (the gateway-level
	// admission token pool; 0 = unbounded). It composes with each
	// shard's own -max-inflight: the gateway bound holds the external
	// capacity promise steady while shards join and drain underneath.
	MaxInflight int
	// ShedRetryAfter is the Retry-After hint written on admission-pool
	// sheds and handoff-window refusals (default 1s; floored to 1s,
	// the header's granularity).
	ShedRetryAfter time.Duration
	// StatePath, when non-empty, persists the live topology (members,
	// URLs, lifecycle states) after every membership change, and msodgw
	// restores it on boot in preference to the -shards flag. Without
	// it, a gateway restart mid-handoff reverts to the flag topology —
	// safe only because cutover persists BEFORE any donor release, so
	// an unpersisted cutover leaves the donors still holding history.
	StatePath string
	// HandoffTimeout bounds one membership handoff end to end
	// (default 2m).
	HandoffTimeout time.Duration
}

// gwMetrics are the gateway's own counters, served alongside the
// aggregated shard metrics.
type gwMetrics struct {
	routed      atomic.Int64 // decision/advice requests routed to a shard
	unavailable atomic.Int64 // requests failed closed (503)
	retries     atomic.Int64 // same-shard transport retries
	misrouted   atomic.Int64 // answers withheld: resolved subject owned by another shard
	broken      atomic.Int64 // requests refused by an open circuit breaker
	badRequests atomic.Int64
	mgmtFanouts atomic.Int64
	// stateQueries counts /v1/state lookups (routed or fanned out);
	// eventStreams counts /v1/events fan-in connections opened;
	// explainQueries counts /v1/explain provenance fan-outs.
	stateQueries   atomic.Int64
	eventStreams   atomic.Int64
	explainQueries atomic.Int64
	// traceQueries counts /v1/traces assembly fan-outs.
	traceQueries atomic.Int64
	// replicaReads counts advisory/state answers served by a read
	// replica; replicaFallbacks counts reads that had replicas
	// configured but ended up answered by the owning shard.
	replicaReads     atomic.Int64
	replicaFallbacks atomic.Int64
	// Handoff lifecycle counters (see handoff.go): handoffRefusals are
	// the fail-closed 503s for in-transit users and credential-bearing
	// requests on donors during the handoff window.
	handoffStarted    atomic.Int64
	handoffCompleted  atomic.Int64
	handoffFailed     atomic.Int64
	handoffRefusals   atomic.Int64
	handoffUsersMoved atomic.Int64
	// activationFanouts counts FirstStep activation fan-outs to peer
	// shards; activationWithheld counts grants withheld fail-closed
	// because a peer did not acknowledge the activation.
	activationFanouts  atomic.Int64
	activationWithheld atomic.Int64
}

// Gateway fronts a user-sharded PDP cluster: it routes decision and
// advisory requests to the owning shard by consistent hash of the
// user, fans management and metrics out to every shard, and fails
// closed when a shard is unavailable. It serves the same API paths as
// internal/server, so PEPs and msodctl talk to a cluster exactly as
// they talk to one PDP.
type Gateway struct {
	cfg     Config
	ring    *Ring
	checker *Checker
	breaker *Breaker
	mux     *http.ServeMux
	metrics gwMetrics
	start   time.Time

	// replicas maps shard ID to its advisory replica set; read-only
	// after New.
	replicas map[string]*replicaSet

	// runtime samples the gateway's own Go runtime health
	// (goroutines, heap, GC pauses) on every metrics scrape.
	runtime *obsv.RuntimeStats

	// mu guards the topology: shard addresses, clients and lifecycle
	// states (elastic membership mutates all three together).
	mu      sync.RWMutex
	addrs   map[string]string
	clients map[string]*server.Client
	states  map[string]ShardState

	// admission is the cluster-wide token pool (Config.MaxInflight);
	// epoch counts ring changes since boot (for msodgw_ring_epoch).
	admission *admitPool
	epoch     atomic.Int64

	// traffic is the quiesce barrier: every routed request holds the
	// read lock for its full duration; the handoff coordinator takes
	// the write lock once, after raising the transit marks, to prove
	// every pre-mark request has finished before it exports history.
	traffic sync.RWMutex

	// hmu guards the handoff window state below. transit marks the
	// users whose history is in motion (decisions refuse fail-closed);
	// handoffDonors marks the shards losing users (credential-bearing
	// decisions on them refuse — the resolved subject is unpredictable).
	hmu            sync.Mutex
	transit        map[string]bool
	handoffDonors  map[string]bool
	currentHandoff *HandoffStatus
	lastHandoff    *HandoffStatus

	// baseCtx parents every handoff; Close cancels it and waits.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	handoffWG  sync.WaitGroup
}

// New validates the topology and builds a gateway. The checker starts
// with every shard Up; call Gateway.Checker().CheckNow() (and Start)
// to begin probing.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 2
	}
	if cfg.BreakerAfter <= 0 {
		cfg.BreakerAfter = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.ShedRetryAfter < time.Second {
		cfg.ShedRetryAfter = time.Second
	}
	if cfg.HandoffTimeout <= 0 {
		cfg.HandoffTimeout = 2 * time.Minute
	}
	g := &Gateway{
		cfg:       cfg,
		ring:      NewRing(cfg.VirtualNodes),
		start:     time.Now(),
		runtime:   obsv.NewRuntimeStats(),
		addrs:     make(map[string]string, len(cfg.Shards)),
		clients:   make(map[string]*server.Client, len(cfg.Shards)),
		states:    make(map[string]ShardState, len(cfg.Shards)),
		admission: newAdmitPool(cfg.MaxInflight),
	}
	g.baseCtx, g.baseCancel = context.WithCancel(context.Background())
	ids := make([]string, 0, len(cfg.Shards))
	authoritative := 0
	for _, s := range cfg.Shards {
		if s.ID == "" || s.BaseURL == "" {
			return nil, fmt.Errorf("cluster: shard needs id and url, got %+v", s)
		}
		if _, dup := g.addrs[s.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", s.ID)
		}
		g.addrs[s.ID] = s.BaseURL
		g.clients[s.ID] = g.newShardClient(s.BaseURL)
		state := cfg.States[s.ID] // zero value = ShardActive
		g.states[s.ID] = state
		// Only authoritative shards enter the ring: a restored topology
		// may carry joining or gone shards, which own nothing.
		if state.Authoritative() {
			g.ring.Add(s.ID)
			authoritative++
		}
		ids = append(ids, s.ID)
	}
	if authoritative == 0 {
		return nil, errors.New("cluster: no authoritative (active) shard in the topology")
	}
	g.replicas = make(map[string]*replicaSet)
	for shardID, urls := range cfg.Replicas {
		if _, ok := g.addrs[shardID]; !ok {
			return nil, fmt.Errorf("cluster: replicas configured for unknown shard %q", shardID)
		}
		set := &replicaSet{}
		for _, u := range urls {
			if u == "" {
				return nil, fmt.Errorf("cluster: empty replica URL for shard %q", shardID)
			}
			set.urls = append(set.urls, u)
		}
		if len(set.urls) > 0 {
			g.replicas[shardID] = set
		}
	}
	g.checker = NewChecker(ids, g.probe, cfg.FailAfter)
	g.breaker = NewBreaker(ids, cfg.BreakerAfter, cfg.BreakerCooldown)
	g.mux = http.NewServeMux()
	g.mux.HandleFunc(server.DecisionPath, func(w http.ResponseWriter, r *http.Request) {
		g.handleRouted(w, r, true, (*server.Client).DecisionCtx)
	})
	g.mux.HandleFunc(server.AdvicePath, g.handleAdvice)
	g.mux.HandleFunc(server.ManagementPath, g.handleManagement)
	g.mux.HandleFunc(server.MetricsPath, g.handleMetrics)
	g.mux.HandleFunc(server.HealthPath, g.handleHealth)
	g.mux.HandleFunc(server.StateUsersPath, g.handleStateUser)
	g.mux.HandleFunc(server.StateContextsPath, g.handleStateContext)
	g.mux.HandleFunc(server.EventsPath, g.handleEvents)
	g.mux.HandleFunc(server.ExplainPath, g.handleExplain)
	g.mux.HandleFunc(server.TracesPath, g.handleTraces)
	g.mux.HandleFunc(ClusterStatusPath, g.handleClusterStatus)
	g.mux.HandleFunc(ClusterJoinPath, g.handleClusterJoin)
	g.mux.HandleFunc(ClusterDrainPath, g.handleClusterDrain)
	g.mux.HandleFunc(ClusterRemovePath, g.handleClusterRemove)
	return g, nil
}

// Checker exposes the health tracker (for probing control and
// shutdown).
func (g *Gateway) Checker() *Checker { return g.checker }

// Breaker exposes the per-shard circuit breaker (for tests and
// introspection).
func (g *Gateway) Breaker() *Breaker { return g.breaker }

// Close stops background probing, cancels any in-flight handoff and
// waits for its goroutine to unwind (the donor stays authoritative; a
// cancelled handoff fails exactly like any other pre-cutover failure).
func (g *Gateway) Close() {
	g.baseCancel()
	g.checker.Stop()
	g.handoffWG.Wait()
}

// probe is the Checker's probe: the shard's /v1/health via its
// deadline-bounded client.
func (g *Gateway) probe(shard string) (string, error) {
	c, ok := g.client(shard)
	if !ok {
		return "", fmt.Errorf("cluster: unknown shard %q", shard)
	}
	return c.Health()
}

// newShardClient builds the deadline-bounded client for a shard at
// baseURL. Shed retries are off on shard clients: when a shard sheds
// load (503 + Retry-After), the gateway forwards the hint to the PEP
// instead of blocking a gateway worker on the shard's backlog.
func (g *Gateway) newShardClient(baseURL string) *server.Client {
	return server.NewClient(baseURL, g.cfg.HTTPClient, server.WithTimeout(g.cfg.Timeout), server.WithShedRetries(0))
}

// client returns the current client for a shard.
func (g *Gateway) client(shard string) (*server.Client, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, ok := g.clients[shard]
	return c, ok
}

// SetShardAddr points an existing shard ID at a new base URL — the
// rejoin path for a shard restarted elsewhere. The ring position (and
// therefore the user set) is unchanged; the shard still re-enters
// service only after a successful health probe.
func (g *Gateway) SetShardAddr(id, baseURL string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.addrs[id]; !ok {
		return fmt.Errorf("cluster: unknown shard %q", id)
	}
	g.addrs[id] = baseURL
	g.clients[id] = g.newShardClient(baseURL)
	return nil
}

// ShardFor reports which shard owns a routing key (user ID).
func (g *Gateway) ShardFor(key string) (string, bool) { return g.ring.Lookup(key) }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// routingKey extracts the user identity a request routes by: the
// pre-validated User, or the holder the credentials assert. The key is
// a HINT, not the authority on the subject — when credentials are
// present the shard's CVS (and identity linker) resolves the canonical
// user itself and may disagree with an unvalidated Holder, a forged
// leading credential, or an unlinked alias. handleRouted therefore
// verifies after the fact that the subject the shard actually resolved
// is owned by the routed shard, and withholds the answer otherwise.
func routingKey(req server.DecisionRequest) string {
	if req.User != "" {
		return req.User
	}
	for _, c := range req.Credentials {
		if c.Holder != "" {
			return c.Holder
		}
	}
	return ""
}

// newRequestID mints the idempotency ID attached to a decision before
// its first send, so every retry reaches the shard under the same ID
// and the decision commits at most once.
func newRequestID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "" // no entropy: send without idempotency rather than fail
	}
	return hex.EncodeToString(b[:])
}

// errorJSON mirrors the server's errorResponse shape.
func errorJSON(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleRouted serves /v1/decision and /v1/advice: route to the owning
// shard, retry transport errors against that same shard only, and fail
// closed when the shard cannot answer. Re-routing is deliberately
// impossible: serving user U from a second shard would evaluate MSoD
// against a partial retained ADI and could grant what a complete
// history denies.
//
// Two guards make the routing trustworthy:
//
//   - Ownership echo-check: the routing key is only a hint (see
//     routingKey); the shard's CVS may resolve the credentials to a
//     different canonical user. If the resolved subject in the
//     response is not owned by the routed shard, the answer is
//     withheld with a 502 — forwarding it would hand out a decision
//     evaluated against the wrong shard's (partial) history. The
//     stray evaluation can only over-count on a shard that never
//     serves that user, which is deny-safe; the owner's retained ADI
//     is untouched and the grant never reaches the PEP.
//
//   - Idempotent retries: decision requests (record=true) are stamped
//     with a RequestID before the first send, so a retry after a
//     timeout that struck post-commit replays the shard's committed
//     response instead of double-recording ADI history.
func (g *Gateway) handleRouted(w http.ResponseWriter, r *http.Request, record bool, call func(*server.Client, context.Context, server.DecisionRequest) (server.DecisionResponse, error)) {
	req, key, traceID, ok := g.admitRouted(w, r)
	if !ok {
		return
	}
	g.routeDecision(w, r, req, key, traceID, record, call)
}

// admitRouted performs the shared request admission for the routed
// paths: method check, decode, routing-key extraction, and trace
// adoption. A false return means the refusal has been written.
func (g *Gateway) admitRouted(w http.ResponseWriter, r *http.Request) (server.DecisionRequest, string, obsv.TraceID, bool) {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST required")
		return server.DecisionRequest{}, "", "", false
	}
	var req server.DecisionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		g.metrics.badRequests.Add(1)
		errorJSON(w, http.StatusBadRequest, fmt.Sprintf("decode: %v", err))
		return server.DecisionRequest{}, "", "", false
	}
	key := routingKey(req)
	if key == "" {
		g.metrics.badRequests.Add(1)
		errorJSON(w, http.StatusBadRequest, "request has no routable subject (user or credential holder)")
		return server.DecisionRequest{}, "", "", false
	}
	// The gateway is where the trace is born: adopt the PEP's
	// traceparent or mint one, and reuse the same trace (and so the
	// same ID) across every retry — all attempts of one decision
	// correlate under one key, and the shard stamps it into the
	// DecisionResponse and the audit-trail record.
	traceID, ok := obsv.ParseTraceparent(r.Header.Get(obsv.TraceparentHeader))
	if !ok {
		traceID = obsv.NewTraceID()
	}
	return req, key, traceID, true
}

// routeDecision is the owner-routed tail of handleRouted: everything
// after admission, from ring lookup through retries to the response.
func (g *Gateway) routeDecision(w http.ResponseWriter, r *http.Request, req server.DecisionRequest, key string, traceID obsv.TraceID, record bool, call func(*server.Client, context.Context, server.DecisionRequest) (server.DecisionResponse, error)) {
	trace := obsv.NewTrace(traceID)
	ctx := obsv.WithTrace(r.Context(), trace)
	start := time.Now()
	release, admitted := g.admitCluster(w)
	if !admitted {
		return
	}
	defer release()
	// The read side of the quiesce barrier: held for the request's full
	// duration (retries included), so a handoff that has raised its
	// transit marks can wait out every request admitted before them.
	// The handoff-window checks below run AFTER this acquisition — a
	// request that slept on the barrier re-reads the marks it missed.
	g.traffic.RLock()
	defer g.traffic.RUnlock()
	shard, ok := g.ring.Lookup(key)
	if ok && record {
		if reason, refuse := g.transitRefusal(key, shard, len(req.Credentials) > 0); refuse {
			g.metrics.handoffRefusals.Add(1)
			g.refuse(w, traceID, key, shard, http.StatusServiceUnavailable, g.cfg.ShedRetryAfter, reason, reason)
			return
		}
	}
	ringV0 := g.ring.Version()
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
	if record && req.RequestID == "" {
		req.RequestID = newRequestID()
	}

	var lastErr error
	backoff := g.cfg.RetryBackoff
	for attempt := 0; attempt <= g.cfg.Retries; attempt++ {
		if attempt > 0 {
			g.metrics.retries.Add(1)
			// Context-aware, jittered backoff: a dead client connection
			// stops retrying immediately, and the ±25% jitter keeps a
			// recovering shard from being hit by a synchronized wave of
			// retries from every waiting request.
			if !sleepContext(ctx, jitterBackoff(backoff)) {
				break
			}
			backoff *= 2
			if !g.checker.Up(shard) || g.breaker.State(shard) == BreakerOpen {
				break // went down while we backed off; stop hammering
			}
		}
		resp, err := call(client, ctx, req)
		if err == nil {
			g.breaker.Success(shard)
			// Handoff defense-in-depth: the routing-key check above could
			// not see the subject the shard's CVS actually resolved. If
			// THAT user is in transit — or the ring moved underneath the
			// call — the shard may have answered from history that is
			// mid-copy, so the answer is withheld fail-closed. Advisories
			// are withheld too: a post-cutover release could be purging
			// the donor's copy while it evaluates. Any record
			// the shard committed stays deny-safe: the import replaces the
			// donor's copy wholesale, and a stray copy elsewhere can only
			// add denials.
			if g.resolvedInTransit(resp.User) || g.ring.Version() != ringV0 {
				g.metrics.handoffRefusals.Add(1)
				g.refuse(w, traceID, key, shard, http.StatusServiceUnavailable, g.cfg.ShedRetryAfter,
					fmt.Sprintf("answer withheld: resolved subject %q history in handoff transit", resp.User),
					fmt.Sprintf("user %q history is being moved between shards; withholding the answer rather than serving a partial history, retry after the hinted delay", resp.User))
				return
			}
			if owner, ok := g.ring.Lookup(resp.User); resp.User == "" || !ok || owner != shard {
				g.metrics.misrouted.Add(1)
				g.refuse(w, traceID, key, shard, http.StatusBadGateway, 0,
					fmt.Sprintf("answer withheld: shard resolved subject %q owned by %s", resp.User, owner),
					fmt.Sprintf("shard %s resolved the subject to %q (owner %s); withholding the answer: routing key %q was not the canonical subject, so the decision was evaluated against the wrong shard's history",
						shard, resp.User, owner, key))
				return
			}
			// A grant that STARTED a FirstStep-gated context instance is
			// acked only after every tracked peer shard has been told the
			// instance is running (see activation.go): a peer that missed
			// the activation would treat the instance as not started and
			// grant its users' later operations unrecorded — under-counted
			// history, a false grant. A failed fan-out withholds the ack
			// fail-closed; the shard's committed opening record and any
			// partial markers only ever add denials.
			if record && len(resp.Activated) > 0 {
				g.metrics.activationFanouts.Add(1)
				if ferr := g.fanoutActivation(ctx, shard, resp.Activated); ferr != nil {
					g.metrics.activationWithheld.Add(1)
					g.refuse(w, traceID, key, shard, http.StatusServiceUnavailable, g.cfg.ShedRetryAfter,
						fmt.Sprintf("grant withheld: context activation fan-out incomplete (%v)", ferr),
						fmt.Sprintf("decision started context instance(s) %v but not every shard acknowledged the activation (%v); withholding the grant fail-closed, retry after the hinted delay",
							resp.Activated, ferr))
					return
				}
			}
			g.logDecision(traceID, resp, shard, attempt, time.Since(start))
			writeJSON(w, http.StatusOK, resp)
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
func (g *Gateway) logDecision(traceID obsv.TraceID, resp server.DecisionResponse, shard string, attempt int, elapsed time.Duration) {
	if g.cfg.Logger == nil || elapsed < g.cfg.SlowLog {
		return
	}
	g.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "decision",
		slog.String("traceID", string(traceID)),
		slog.String("shard", shard),
		slog.String("user", resp.User),
		slog.Bool("allowed", resp.Allowed),
		slog.String("phase", resp.Phase),
		slog.Int("attempts", attempt+1),
		slog.Float64("seconds", elapsed.Seconds()))
}

// refuse writes a refusal routeDecision itself produced — a fail-closed
// 503 (counted in msodgw_unavailable_total) or a withheld misrouted
// answer (502) — with the Retry-After hint when one is given, and logs
// it as a warning: these are operational events regardless of any
// slow-log threshold.
func (g *Gateway) refuse(w http.ResponseWriter, traceID obsv.TraceID, key, shard string, status int, retryAfter time.Duration, reason, msg string) {
	if status == http.StatusServiceUnavailable {
		g.metrics.unavailable.Add(1)
	}
	if g.cfg.Logger != nil {
		g.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "refused",
			slog.String("traceID", string(traceID)),
			slog.String("user", key),
			slog.String("shard", shard),
			slog.String("reason", reason))
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfterCeil(retryAfter), 10))
	}
	errorJSON(w, status, msg)
}

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
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req server.ManagementWireRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		g.metrics.badRequests.Add(1)
		errorJSON(w, http.StatusBadRequest, fmt.Sprintf("decode: %v", err))
		return
	}
	release, admitted := g.admitCluster(w)
	if !admitted {
		return
	}
	defer release()
	// Management holds the quiesce barrier too, so a handoff waits out
	// in-flight fan-outs; and it is refused outright during a handoff —
	// a purge racing the history stream could resurrect records the
	// administrator believes gone (purged on the donor after export,
	// reborn by the import on the recipient).
	g.traffic.RLock()
	defer g.traffic.RUnlock()
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
	g.metrics.mgmtFanouts.Add(1)
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
	if failed == 0 {
		writeJSON(w, http.StatusOK, agg)
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
	writeJSON(w, status, managementErrorResponse{Error: msg, Shards: outcomes})
}

// handleHealth reports the gateway's own view: ok only when every
// authoritative shard is up and all report the same policy. A shard
// that is merely joining (or gone) owns no users, so its health cannot
// degrade the cluster; while a handoff runs, an otherwise healthy
// cluster reports "rebalancing" so operators see the window without
// paging on it.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	statuses := g.checker.Statuses()
	overall := "ok"
	policies := map[string]bool{}
	type shardHealth struct {
		State     string `json:"state"`
		Lifecycle string `json:"lifecycle"`
		Breaker   string `json:"breaker,omitempty"`
		Policy    string `json:"policy,omitempty"`
		LastErr   string `json:"lastError,omitempty"`
		Failures  int    `json:"consecutiveFailures,omitempty"`
	}
	breakers := g.breaker.States()
	shards := make(map[string]shardHealth, len(statuses))
	for id, st := range statuses {
		life, _ := g.shardState(id)
		if life.Authoritative() {
			if st.State != Up {
				overall = "degraded"
			}
			if breakers[id] != BreakerClosed {
				overall = "degraded"
			}
			if st.PolicyID != "" {
				policies[st.PolicyID] = true
			}
		}
		shards[id] = shardHealth{
			State: st.State.String(), Lifecycle: life.String(),
			Breaker: breakers[id].String(), Policy: st.PolicyID,
			LastErr: st.LastErr, Failures: st.Consecutive,
		}
	}
	if len(policies) > 1 {
		overall = "degraded" // policy split-brain: shards disagree
	}
	if active, _ := g.handoffActive(); active && overall == "ok" {
		overall = "rebalancing"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": overall,
		"role":   "gateway",
		"shards": shards,
	})
}

// metricFamily is one metric family of the aggregated scrape: the
// HELP/TYPE header from the first body that declared it, then every
// body's sample lines in body order.
type metricFamily struct {
	header []string
	series []string
}

// handleMetrics aggregates every live shard's /v1/metrics by
// injecting a shard="<id>" label into each scraped series, so
// per-shard load, latency and retained-ADI size stay visible through
// one gateway scrape (summing across the cluster is the scraper's
// job, and hides exactly the imbalance a sharded deployment must
// watch). Families keep one HELP/TYPE header and stay contiguous.
// Shards are scraped concurrently under ONE overall deadline —
// scraping several slow shards sequentially would take shards×timeout
// and blow a Prometheus scrape budget — and the bodies are merged in
// shard order so the output stays deterministic. The gateway's own
// msod_build_info / msod_uptime_seconds merge into the same families
// (unlabelled); its msodgw_* counters follow at the end.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The scraper's dialect is forwarded to the shards: an OpenMetrics
	// scrape pulls exemplar-annotated histograms out of each shard, and
	// ParseSeries carries the exemplars through the shard-label rewrite.
	om := obsv.WantOpenMetrics(r.Header.Get("Accept"))
	accept := ""
	if om {
		accept = obsv.OpenMetricsContentType
	}
	var live []string
	for _, shard := range g.shards(tracked) {
		if g.checker.Up(shard) {
			live = append(live, shard)
		}
	}
	bodies := scatter(r.Context(), g, live, func(ctx context.Context, shard string, _ *server.Client) ([]byte, error) {
		return g.scrapeShard(ctx, shard, accept)
	})

	fams := make(map[string]*metricFamily)
	var order []string
	family := func(name string) *metricFamily {
		f, ok := fams[name]
		if !ok {
			f = &metricFamily{}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	// merge folds one exposition body in: headers claim the family for
	// their samples (histogram _bucket/_sum/_count lines group under
	// the family the preceding TYPE named), and every sample gains the
	// shard label when one is given.
	merge := func(body, shardID string) {
		current := ""
		for _, line := range strings.Split(body, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				fields := strings.Fields(line)
				if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
					current = fields[2]
					f := family(current)
					if len(f.series) == 0 {
						// Only the first body to declare the family
						// contributes its header.
						f.header = append(f.header, line)
					}
				}
				continue
			}
			s, ok := obsv.ParseSeries(line)
			if !ok {
				continue
			}
			name := s.Name
			if current != "" && (name == current || strings.HasPrefix(name, current+"_")) {
				name = current
			}
			if shardID != "" {
				s = s.WithLabel("shard", shardID)
			}
			family(name).series = append(family(name).series, s.String())
		}
	}
	scraped := 0
	for _, body := range bodies {
		if body.err != nil {
			continue
		}
		scraped++
		merge(string(body.val), body.shard)
	}
	// The gateway's own process identity and runtime health join the
	// same families: its msod_go_* series merge unlabeled next to the
	// shard="..." series scraped from each shard.
	var own strings.Builder
	obsv.WriteBuildInfo(&own, "msodgw")
	obsv.WriteUptime(&own, g.start)
	g.runtime.Write(&own)
	merge(own.String(), "")

	if om {
		w.Header().Set("Content-Type", obsv.OpenMetricsContentType)
	} else {
		w.Header().Set("Content-Type", obsv.TextContentType)
	}
	fmt.Fprintf(w, "# msodgw: aggregated over %d live shard(s); shard series carry a shard=\"<id>\" label\n", scraped)
	for _, name := range order {
		f := fams[name]
		for _, h := range f.header {
			fmt.Fprintln(w, h)
		}
		for _, s := range f.series {
			fmt.Fprintln(w, s)
		}
	}
	g.writeOwnMetrics(w)
	if om {
		obsv.WriteOpenMetricsEOF(w)
	}
}

// scrapeShard fetches one shard's metrics body under the caller's
// deadline, forwarding the negotiated Accept dialect when non-empty.
func (g *Gateway) scrapeShard(ctx context.Context, shard, accept string) ([]byte, error) {
	g.mu.RLock()
	base := g.addrs[shard]
	g.mu.RUnlock()
	hc := g.cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequest(http.MethodGet, base+server.MetricsPath, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := hc.Do(req.WithContext(ctx))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// writeOwnMetrics emits the gateway's counters and per-shard gauges.
// Each family name is a literal at the obsv call so msodvet's
// metricname analyzer can vet naming, uniqueness and label stability.
func (g *Gateway) writeOwnMetrics(w io.Writer) {
	obsv.WriteCounter(w, "msodgw_routed_total", "Decision/advice requests routed to their owning shard.", g.metrics.routed.Load())
	obsv.WriteCounter(w, "msodgw_unavailable_total", "Requests failed closed (503) because the owning shard could not answer.", g.metrics.unavailable.Load())
	obsv.WriteCounter(w, "msodgw_retries_total", "Same-shard transport retries.", g.metrics.retries.Load())
	obsv.WriteCounter(w, "msodgw_misrouted_total", "Answers withheld because the shard resolved a subject another shard owns.", g.metrics.misrouted.Load())
	obsv.WriteCounter(w, "msodgw_bad_requests_total", "Requests rejected before routing (bad input, no subject).", g.metrics.badRequests.Load())
	obsv.WriteCounter(w, "msodgw_management_fanouts_total", "Management operations fanned out to all shards.", g.metrics.mgmtFanouts.Load())
	obsv.WriteCounter(w, "msodgw_state_queries_total", "Introspection state lookups served (routed or fanned out).", g.metrics.stateQueries.Load())
	obsv.WriteCounter(w, "msodgw_event_streams_total", "Decision event fan-in streams opened.", g.metrics.eventStreams.Load())
	obsv.WriteCounter(w, "msodgw_explain_queries_total", "Decision provenance (/v1/explain) queries fanned out to the cluster.", g.metrics.explainQueries.Load())
	obsv.WriteCounter(w, "msodgw_trace_queries_total", "Trace assembly (/v1/traces) queries fanned out to the cluster.", g.metrics.traceQueries.Load())
	obsv.WriteCounter(w, "msodgw_breaker_refused_total", "Requests refused by an open circuit breaker (also counted in msodgw_unavailable_total).", g.metrics.broken.Load())
	obsv.WriteCounter(w, "msodgw_replica_reads_total", "Advisory/state reads served by a shard's read replica.", g.metrics.replicaReads.Load())
	obsv.WriteCounter(w, "msodgw_replica_fallbacks_total", "Reads with replicas configured that were answered by the owning shard instead.", g.metrics.replicaFallbacks.Load())
	fmt.Fprintf(w, "# HELP msodgw_shard_up Shard availability (1 up, 0 down).\n# TYPE msodgw_shard_up gauge\n")
	statuses := g.checker.Statuses()
	ids := g.shards(tracked)
	for _, id := range ids {
		up := 0
		if statuses[id].State == Up {
			up = 1
		}
		fmt.Fprintf(w, "msodgw_shard_up{shard=%q} %d\n", id, up)
	}
	fmt.Fprintf(w, "# HELP msodgw_breaker_state Per-shard circuit state (0 closed, 1 half-open, 2 open).\n# TYPE msodgw_breaker_state gauge\n")
	states := g.breaker.States()
	for _, id := range ids {
		fmt.Fprintf(w, "msodgw_breaker_state{shard=%q} %d\n", id, states[id].GaugeValue())
	}
	obsv.WriteGauge(w, "msodgw_ring_epoch", "Ring membership changes applied since gateway boot.", float64(g.epoch.Load()))
	obsv.WriteGauge(w, "msodgw_ring_members", "Authoritative shards currently on the hash ring.", float64(g.ring.Size()))
	fmt.Fprintf(w, "# HELP msodgw_ring_shard_state Per-shard lifecycle (0 active, 1 joining, 2 syncing, 3 draining, 4 gone).\n# TYPE msodgw_ring_shard_state gauge\n")
	for _, id := range ids {
		life, _ := g.shardState(id)
		fmt.Fprintf(w, "msodgw_ring_shard_state{shard=%q} %d\n", id, life.GaugeValue())
	}
	obsv.WriteGauge(w, "msodgw_admission_capacity", "Cluster-wide admission pool capacity (0 = unbounded).", float64(g.admission.Capacity()))
	obsv.WriteGauge(w, "msodgw_admission_inflight", "Requests currently holding a cluster admission token.", float64(g.admission.Inflight()))
	obsv.WriteCounter(w, "msodgw_admission_shed_total", "Requests shed because the cluster admission pool was exhausted.", g.admission.Shed())
	active, age := 0.0, 0.0
	if on, dur := g.handoffActive(); on {
		active = 1
		age = dur.Seconds()
	}
	obsv.WriteGauge(w, "msod_handoff_active", "Whether a membership handoff is in progress (0/1).", active)
	obsv.WriteGauge(w, "msod_handoff_age_seconds", "Age of the in-progress handoff (0 when idle); alert when it exceeds the handoff timeout.", age)
	obsv.WriteCounter(w, "msod_handoff_started_total", "Membership handoffs started (join and drain).", g.metrics.handoffStarted.Load())
	obsv.WriteCounter(w, "msod_handoff_completed_total", "Membership handoffs completed through cutover.", g.metrics.handoffCompleted.Load())
	obsv.WriteCounter(w, "msod_handoff_failed_total", "Membership handoffs aborted before cutover (donor stays authoritative).", g.metrics.handoffFailed.Load())
	obsv.WriteCounter(w, "msod_handoff_refusals_total", "Decisions refused fail-closed during a handoff window (in-transit users, donor credentials, withheld answers).", g.metrics.handoffRefusals.Load())
	obsv.WriteCounter(w, "msod_handoff_users_moved_total", "Users whose retained-ADI history was streamed to a new owner.", g.metrics.handoffUsersMoved.Load())
	obsv.WriteCounter(w, "msodgw_ctx_activation_fanouts_total", "FirstStep context activations fanned out to peer shards before acking the grant.", g.metrics.activationFanouts.Load())
	obsv.WriteCounter(w, "msodgw_ctx_activation_withheld_total", "Grants withheld fail-closed because a peer shard did not acknowledge a context activation.", g.metrics.activationWithheld.Load())
}
