package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"msod/internal/server"
)

// Cluster administration paths served by the gateway.
const (
	// ClusterStatusPath reports ring membership, lifecycle states,
	// per-shard health and the current handoff (GET).
	ClusterStatusPath = "/v1/cluster"
	// ClusterJoinPath admits a new shard and starts the join handoff
	// (POST {id, url}).
	ClusterJoinPath = "/v1/cluster/join"
	// ClusterDrainPath starts draining an active shard out of the ring
	// (POST {id}).
	ClusterDrainPath = "/v1/cluster/drain"
	// ClusterRemovePath removes a shard that owns nothing — state
	// joining or gone — from the topology (POST {id}).
	ClusterRemovePath = "/v1/cluster/remove"
)

// ClusterMemberRequest names a shard for join/drain/remove.
type ClusterMemberRequest struct {
	ID string `json:"id"`
	// URL is the shard's base URL; join only.
	URL string `json:"url,omitempty"`
}

// ClusterChangeResponse acknowledges an accepted membership change.
type ClusterChangeResponse struct {
	Shard string `json:"shard"`
	State string `json:"state"`
	// Handoff is the handoff the change started (join/drain; absent on
	// remove, which never moves history).
	Handoff *HandoffStatus `json:"handoff,omitempty"`
}

// ClusterShardStatus is one shard's row in the status response.
type ClusterShardStatus struct {
	URL       string `json:"url"`
	Lifecycle string `json:"lifecycle"`
	Health    string `json:"health"`
	Breaker   string `json:"breaker"`
	Policy    string `json:"policy,omitempty"`
	LastError string `json:"lastError,omitempty"`
	InRing    bool   `json:"inRing"`
}

// ClusterAdmissionStatus reports the gateway-wide admission pool.
type ClusterAdmissionStatus struct {
	Capacity int64 `json:"capacity"` // 0 = unbounded
	InFlight int64 `json:"inFlight"`
	Shed     int64 `json:"shed"`
}

// ClusterStatusResponse is the GET /v1/cluster body.
type ClusterStatusResponse struct {
	// RingVersion is the stable membership hash (hex): two gateways
	// report the same value iff they route identically.
	RingVersion string `json:"ringVersion"`
	// Epoch counts ring changes since this gateway booted.
	Epoch int64 `json:"epoch"`
	// Members are the ring members (authoritative shards), sorted.
	Members []string `json:"members"`
	// Shards is every tracked shard — ring members plus joining,
	// syncing and gone ones.
	Shards    map[string]ClusterShardStatus `json:"shards"`
	Admission ClusterAdmissionStatus        `json:"admission"`
	// Handoff is the in-progress handoff; LastHandoff the most recent
	// finished one (done or failed).
	Handoff     *HandoffStatus `json:"handoff,omitempty"`
	LastHandoff *HandoffStatus `json:"lastHandoff,omitempty"`
}

func (g *Gateway) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		errorJSON(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	members, version := g.ring.Snapshot()
	inRing := make(map[string]bool, len(members))
	for _, m := range members {
		inRing[m] = true
	}
	statuses := g.checker.Statuses()
	breakers := g.breaker.States()
	g.mu.RLock()
	shards := make(map[string]ClusterShardStatus, len(g.states))
	for id, state := range g.states {
		st := statuses[id]
		shards[id] = ClusterShardStatus{
			URL:       g.addrs[id],
			Lifecycle: state.String(),
			Health:    st.State.String(),
			Breaker:   breakers[id].String(),
			Policy:    st.PolicyID,
			LastError: st.LastErr,
			InRing:    inRing[id],
		}
	}
	g.mu.RUnlock()
	current, last := g.handoffSnapshot()
	server.WriteJSON(w, http.StatusOK, ClusterStatusResponse{
		RingVersion: fmt.Sprintf("%016x", version),
		Epoch:       g.epoch.Load(),
		Members:     members,
		Shards:      shards,
		Admission: ClusterAdmissionStatus{
			Capacity: g.admission.Capacity(),
			InFlight: g.admission.Inflight(),
			Shed:     g.admission.Shed(),
		},
		Handoff:     current,
		LastHandoff: last,
	})
}

// decodeMember parses the admin request body.
func (g *Gateway) decodeMember(w http.ResponseWriter, r *http.Request) (ClusterMemberRequest, bool) {
	var req ClusterMemberRequest
	if !g.decodePOST(w, r, &req) {
		return ClusterMemberRequest{}, false
	}
	if req.ID == "" {
		errorJSON(w, http.StatusBadRequest, "shard id required")
		return ClusterMemberRequest{}, false
	}
	return req, true
}

// handleClusterJoin admits a new shard and starts the join handoff:
// probe → admit to the topology (joining) → stream its future users in
// → cutover. The response is a 202: the handoff runs asynchronously
// and its progress is on GET /v1/cluster.
func (g *Gateway) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	req, ok := g.decodeMember(w, r)
	if !ok {
		return
	}
	if req.URL == "" {
		errorJSON(w, http.StatusBadRequest, "join requires the shard's base url")
		return
	}
	// Probe before touching any state: the joiner must be alive and run
	// the cluster's policy. A policy-mismatched shard imported history
	// would evaluate it under different semantics.
	policy, err := g.newShardClient(req.URL, nil).Health()
	if err != nil {
		errorJSON(w, http.StatusBadGateway, fmt.Sprintf("joining shard %s unreachable at %s: %v", req.ID, req.URL, err))
		return
	}
	if cluster := g.clusterPolicy(); cluster != "" && policy != cluster {
		errorJSON(w, http.StatusConflict, fmt.Sprintf(
			"policy mismatch: joining shard runs %q, cluster runs %q", policy, cluster))
		return
	}
	hs, err := g.beginHandoff(HandoffJoin, req.ID)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusConflict, err.Error())
		return
	}
	if err := g.admitShard(req.ID, req.URL); err != nil {
		g.abortHandoff(err.Error())
		errorJSON(w, http.StatusConflict, err.Error())
		return
	}
	// Flip the joiner Up before streaming starts (Checker.Add starts it
	// Down); this also refreshes every other shard's health for the
	// plan phase.
	g.checker.CheckNow()
	g.setShardState(req.ID, ShardSyncing)
	g.persistTopologyLogged()
	g.startHandoff(true, req.ID)
	hs.Phase = PhasePlanning
	server.WriteJSON(w, http.StatusAccepted, ClusterChangeResponse{
		Shard: req.ID, State: ShardSyncing.String(), Handoff: &hs,
	})
}

// handleClusterDrain starts moving every user off an active shard.
func (g *Gateway) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	req, ok := g.decodeMember(w, r)
	if !ok {
		return
	}
	hs, err := g.beginHandoff(HandoffDrain, req.ID)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusConflict, err.Error())
		return
	}
	g.mu.Lock()
	state, exists := g.states[req.ID]
	ringSize := g.ring.Size()
	switch {
	case !exists:
		g.mu.Unlock()
		g.abortHandoff("unknown shard")
		errorJSON(w, http.StatusNotFound, fmt.Sprintf("unknown shard %q", req.ID))
		return
	case state != ShardActive:
		g.mu.Unlock()
		g.abortHandoff("shard not active")
		errorJSON(w, http.StatusConflict, fmt.Sprintf("shard %s is %s, only active shards drain", req.ID, state))
		return
	case ringSize < 2:
		g.mu.Unlock()
		g.abortHandoff("last shard")
		errorJSON(w, http.StatusConflict, "refusing to drain the last ring member: its users' history would have no destination")
		return
	}
	g.states[req.ID] = ShardDraining
	g.mu.Unlock()
	g.persistTopologyLogged()
	g.startHandoff(false, req.ID)
	server.WriteJSON(w, http.StatusAccepted, ClusterChangeResponse{
		Shard: req.ID, State: ShardDraining.String(), Handoff: &hs,
	})
}

// handleClusterRemove drops a shard that owns nothing from the
// topology. Removing a shard that still owns ring ranges is refused
// outright — its users would be rehashed onto shards that do not hold
// their history, and decisions from that missing history could grant
// what the full history denies. Drain first.
func (g *Gateway) handleClusterRemove(w http.ResponseWriter, r *http.Request) {
	req, ok := g.decodeMember(w, r)
	if !ok {
		return
	}
	if active, _ := g.handoffActive(); active {
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusConflict, "a handoff is in progress; remove after it finishes")
		return
	}
	g.mu.Lock()
	state, exists := g.states[req.ID]
	if !exists {
		g.mu.Unlock()
		errorJSON(w, http.StatusNotFound, fmt.Sprintf("unknown shard %q", req.ID))
		return
	}
	if !state.Removable() {
		g.mu.Unlock()
		errorJSON(w, http.StatusConflict, fmt.Sprintf(
			"shard %s is %s and may own retained history; drain it first (only joining/gone shards are removable)", req.ID, state))
		return
	}
	delete(g.states, req.ID)
	delete(g.addrs, req.ID)
	delete(g.clients, req.ID)
	g.mu.Unlock()
	g.checker.Remove(req.ID)
	g.breaker.Remove(req.ID)
	g.persistTopologyLogged()
	server.WriteJSON(w, http.StatusOK, ClusterChangeResponse{Shard: req.ID, State: "removed"})
}

// admitShard adds a new shard to the topology in the joining state
// (tracked, probed, owning nothing). Re-admitting a shard left in
// "joining" by a failed handoff updates its URL and retries.
func (g *Gateway) admitShard(id, baseURL string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if state, exists := g.states[id]; exists {
		if state != ShardJoining {
			return fmt.Errorf("shard %q already in the topology (state %s)", id, state)
		}
		// Retry of a failed join: refresh the address.
	}
	outbox := server.NewOutbox(&g.closes)
	if c, ok := g.clients[id]; ok {
		outbox = c.Outbox // what a failed join imported is closed like any other history
	}
	g.addrs[id] = baseURL
	g.clients[id] = g.newShardClient(baseURL, outbox)
	g.states[id] = ShardJoining
	g.checker.Add(id)
	g.breaker.Add(id)
	return nil
}

// setShardState updates a shard's lifecycle state (no-op for unknown
// shards — e.g. one removed mid-handoff).
func (g *Gateway) setShardState(id string, state ShardState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.states[id]; ok {
		g.states[id] = state
	}
}

// shardState reads a shard's lifecycle state.
func (g *Gateway) shardState(id string) (ShardState, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.states[id]
	return s, ok
}

// clusterPolicy is the policy ID the cluster runs, from the most
// recent successful probes (empty when no shard has reported one yet).
func (g *Gateway) clusterPolicy() string {
	for _, st := range g.checker.Statuses() {
		if st.PolicyID != "" {
			return st.PolicyID
		}
	}
	return ""
}

// refuseDuringHandoff refuses cluster-mutating side traffic while a
// handoff runs, reporting whether it wrote the refusal. Management
// fan-outs are the motivating case: a purge racing the subtree stream
// could land on the donor after its export and before the release —
// resurrected on the recipient by the import, the exact inconsistency
// the quiesce window exists to prevent.
func (g *Gateway) refuseDuringHandoff(w http.ResponseWriter, what string) bool {
	active, age := g.handoffActive()
	if !active {
		return false
	}
	g.metrics.handoffRefusals.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfterCeil(g.cfg.ShedRetryAfter))))
	errorJSON(w, http.StatusServiceUnavailable, fmt.Sprintf(
		"%s refused: a membership handoff is in progress (%s so far); retry after it completes", what, age.Round(time.Second)))
	return true
}

// retryAfterCeil renders a Retry-After duration in whole seconds,
// minimum 1.
func retryAfterCeil(d time.Duration) int64 {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// --- topology persistence -------------------------------------------

// PersistedShard is one shard in the gateway's topology state file.
type PersistedShard struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	State string `json:"state"`
}

// persistedTopology is the state file schema. The file is the boot
// authority when present: a gateway restarted mid-handoff must come
// back with the membership that matches where the retained history
// actually lives, not with a stale -shards flag — routing a moved
// user back to a released donor would decide from empty history.
type persistedTopology struct {
	SavedAt time.Time        `json:"savedAt"`
	Shards  []PersistedShard `json:"shards"`
}

// persistTopology writes the current topology to cfg.StatePath
// atomically (temp file + rename). No-op without a StatePath.
func (g *Gateway) persistTopology() error {
	if g.cfg.StatePath == "" {
		return nil
	}
	g.mu.RLock()
	top := persistedTopology{SavedAt: time.Now()}
	ids := make([]string, 0, len(g.states))
	for id := range g.states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		top.Shards = append(top.Shards, PersistedShard{ID: id, URL: g.addrs[id], State: g.states[id].String()})
	}
	g.mu.RUnlock()
	data, err := json.MarshalIndent(top, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(g.cfg.StatePath)
	tmp, err := os.CreateTemp(dir, ".msodgw-state-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), g.cfg.StatePath)
}

// persistTopologyLogged persists and logs a failure instead of
// returning it — for the call sites where the in-memory change must
// proceed regardless and the operator just needs to know durability
// was lost.
func (g *Gateway) persistTopologyLogged() {
	if err := g.persistTopology(); err != nil && g.cfg.Logger != nil {
		g.cfg.Logger.Warn("topology state persist failed", "path", g.cfg.StatePath, "error", err.Error())
	}
}

// LoadTopology reads a persisted topology file, normalising transient
// lifecycle states to their recovery values: a shard caught "syncing"
// restarts as "joining" (the interrupted handoff's imports are
// unreachable and will be replaced by a retry), and one caught
// "draining" restarts as "active" (it never cut over, so it is still
// the authority for all of its users; any partial copies on the
// recipients are deny-safe and get replaced when the drain is
// retried). os.IsNotExist(err) distinguishes "no file yet" from a
// corrupt one.
func LoadTopology(path string) ([]PersistedShard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var top persistedTopology
	if err := json.Unmarshal(data, &top); err != nil {
		return nil, fmt.Errorf("cluster: state file %s: %w", path, err)
	}
	if len(top.Shards) == 0 {
		return nil, fmt.Errorf("cluster: state file %s holds no shards", path)
	}
	for i, s := range top.Shards {
		if s.ID == "" || s.URL == "" {
			return nil, fmt.Errorf("cluster: state file %s: shard %d needs id and url", path, i)
		}
		state, err := ParseShardState(s.State)
		if err != nil {
			return nil, fmt.Errorf("cluster: state file %s: %w", path, err)
		}
		switch state {
		case ShardSyncing:
			state = ShardJoining
		case ShardDraining:
			state = ShardActive
		}
		top.Shards[i].State = state.String()
	}
	return top.Shards, nil
}
