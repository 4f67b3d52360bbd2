package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
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
	// VirtualNodes per shard on the ring (DefaultVirtualNodes if < 1).
	VirtualNodes int
	// Timeout bounds every request to a shard (default 5s). For a routed
	// decision or advisory it is the deadline of all its shard calls
	// together — retries and their backoff included — ending between
	// 63/64 of it and all of it after the first attempt: decisions
	// routed close together share one deadline.
	Timeout time.Duration
	// Retries is how many times a decision is re-sent to the SAME
	// shard after a transport error (default 2; -1 disables retries).
	// Retries never change the target shard, and every retry of a
	// decision carries the same idempotency RequestID the gateway
	// minted before the first send — a transport failure that struck
	// after the shard committed replays the committed response instead
	// of double-recording ADI history. A retry is sent only while the
	// decision's Timeout has not run out.
	Retries int
	// RetryBackoff is the initial delay between retries, doubling each
	// attempt (default 25ms).
	RetryBackoff time.Duration
	// FailAfter is the consecutive-failure threshold that marks a
	// shard Down (default 2).
	FailAfter int
	// BreakerAfter is the consecutive transport-failure threshold that
	// opens a shard's circuit breaker on the request path (default 5).
	// The Checker counts the same failures through ReportFailure, so
	// with FailAfter below BreakerAfter (the defaults: 2 and 5) the
	// shard is Down before its breaker opens. The breaker acts only for
	// a shard whose probes pass while its decisions fail, or when
	// FailAfter is set above BreakerAfter.
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
	// the write lock once, after opening the window, to prove every
	// request admitted before it has finished before it lists and
	// exports history.
	traffic sync.RWMutex

	// hmu guards the handoff window state below. next is the ring the
	// open window's handoff moves to, nil when none is open: a key it
	// gives another owner is in transit (requests refuse fail-closed).
	hmu            sync.Mutex
	next           *Ring
	currentHandoff *HandoffStatus
	lastHandoff    *HandoffStatus

	// closes counts the context-instance closes queued on the shard
	// clients' outboxes (see closes.go). closing orders the opens and
	// closes queued there against a handoff's copies and an activation
	// sync: enqueueLifecycle holds it shared, a copy or a sync exclusively.
	closes  server.CloseStats
	closing sync.RWMutex

	// booted is set once bootSync has synced the shards' activations;
	// bootMu makes the callers that find it unset sync one at a time.
	booted atomic.Bool
	bootMu sync.Mutex

	// baseCtx parents every handoff; Close cancels it and waits.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	handoffWG  sync.WaitGroup

	// deadline is the routed decisions' current shared deadline (see
	// decisionContext); nil until the first routed decision.
	deadline atomic.Pointer[sharedDeadline]

	// eventsBackoff is tailShard's pause before it follows a shard's
	// event stream again: eventsReconnectBackoff, which a test may
	// shorten before the first follower arrives.
	eventsBackoff time.Duration
}

// sharedDeadline is one deadline context routed decisions share. Its
// own timer ends it; cancel is kept only so that no CancelFunc is lost,
// and is never called: Close must not cut short a decision whose
// answer, and the activations it carries, are still on the way.
type sharedDeadline struct {
	ctx    context.Context
	cancel context.CancelFunc
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

		eventsBackoff: eventsReconnectBackoff,
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
		g.clients[s.ID] = g.newShardClient(s.BaseURL, server.NewOutbox(&g.closes))
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
	g.checker = NewChecker(ids, g.probe, cfg.FailAfter)
	g.breaker = NewBreaker(ids, cfg.BreakerAfter, cfg.BreakerCooldown)
	g.mux = http.NewServeMux()
	for _, path := range []string{server.DecisionPath, server.AdvicePath} {
		g.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			g.handleRouted(w, r, path)
		})
	}
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
// deadline-bounded client, which carries what the shard's outbox holds.
// It passes only if every activation queued before it is acknowledged
// by then — so a shard leaves Down only once it has applied them, and a
// shard whose answers never acknowledge one (something in between
// answers for it) goes Down.
func (g *Gateway) probe(shard string) (string, error) {
	c, ok := g.client(shard)
	if !ok {
		return "", fmt.Errorf("cluster: unknown shard %q", shard)
	}
	mark := c.Outbox.Mark()
	policy, err := c.Health()
	if n := c.Outbox.Unacknowledged(mark); err == nil && n > 0 {
		err = fmt.Errorf("cluster: shard %s answered the probe without acknowledging %d context activation(s)", shard, n)
	}
	return policy, err
}

// newShardClient builds the deadline-bounded client for a shard at
// baseURL, carrying the closes queued in outbox (nil for a shard that is
// only being probed). Shed retries are off on shard clients: when a
// shard sheds load (503 + Retry-After), the gateway forwards the hint to
// the PEP instead of blocking a gateway worker on the shard's backlog.
func (g *Gateway) newShardClient(baseURL string, outbox *server.Outbox) *server.Client {
	c := server.NewClient(baseURL, g.cfg.HTTPClient, server.WithTimeout(g.cfg.Timeout), server.WithShedRetries(0))
	c.Outbox = outbox
	return c
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
	g.clients[id] = g.newShardClient(baseURL, g.clients[id].Outbox)
	return nil
}

// ShardFor reports which shard owns a routing key (user ID).
func (g *Gateway) ShardFor(key string) (string, bool) { return g.ring.Lookup(key) }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// decodePOST admits a POST whose body is one JSON value, read under the
// shards' own size cap (server.ReadBody), and unmarshals it into v. A
// false return means the refusal has been written: 405, or a 413 or 400
// counted in msodgw_bad_requests_total.
func (g *Gateway) decodePOST(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		errorJSON(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	body, status, err := server.ReadBody(w, r, 0)
	if err == nil {
		status, err = http.StatusBadRequest, json.Unmarshal(body, v)
	}
	if err != nil {
		g.metrics.badRequests.Add(1)
		errorJSON(w, status, fmt.Sprintf("decode: %v", err))
		return false
	}
	return true
}

// errorJSON mirrors the server's errorResponse shape.
func errorJSON(w http.ResponseWriter, status int, msg string) {
	server.WriteJSON(w, status, map[string]string{"error": msg})
}
