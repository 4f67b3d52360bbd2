package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"msod/internal/obsv"
	"msod/internal/server"
)

// Handoff phases, in order. A handoff is the only way ring membership
// changes while the cluster serves: it moves exactly the users whose
// ownership the membership change reassigns, and the users in motion
// are refused fail-closed — never answered from partial history —
// between quiesce and cutover.
const (
	PhasePlanning  = "planning"
	PhaseQuiescing = "quiescing"
	PhaseStreaming = "streaming"
	PhaseCutover   = "cutover"
	PhaseReleasing = "releasing"
	PhaseDone      = "done"
	PhaseFailed    = "failed"
)

// HandoffKind discriminates the two membership moves.
const (
	HandoffJoin  = "join"
	HandoffDrain = "drain"
)

// HandoffStatus is the observable state of one membership handoff.
type HandoffStatus struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`  // join | drain
	Shard   string    `json:"shard"` // the arriving / leaving shard
	Phase   string    `json:"phase"`
	Started time.Time `json:"started"`
	// Users is how many users the plan moves; Moved how many have been
	// imported at their new owner so far.
	Users int    `json:"users"`
	Moved int    `json:"moved"`
	Error string `json:"error,omitempty"`
}

// handoffPlan is the computed ownership delta: which users leave which
// donor, and where each goes.
type handoffPlan struct {
	// moves maps donor shard -> the users leaving it, sorted.
	moves map[string][]string
	// target maps each moving user to its next owner.
	target map[string]string
}

func (p *handoffPlan) users() int { return len(p.target) }

// donors returns the shards losing users, sorted.
func (p *handoffPlan) donors() []string {
	out := make([]string, 0, len(p.moves))
	for d := range p.moves {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// beginHandoff claims the cluster's single handoff slot. One at a time
// is a correctness stance, not a simplification: two concurrent plans
// would compute ownership against rings that each ignore the other's
// pending change, and a user could end up planned onto two targets.
func (g *Gateway) beginHandoff(kind, shard string) (HandoffStatus, error) {
	g.hmu.Lock()
	defer g.hmu.Unlock()
	if g.currentHandoff != nil {
		return HandoffStatus{}, fmt.Errorf("handoff %s (%s of %s, phase %s) already in progress",
			g.currentHandoff.ID, g.currentHandoff.Kind, g.currentHandoff.Shard, g.currentHandoff.Phase)
	}
	hs := &HandoffStatus{
		// Any unique 32-hex-digit token serves as a handoff's ID.
		ID: string(obsv.NewTraceID()), Kind: kind, Shard: shard,
		Phase: PhasePlanning, Started: time.Now(),
	}
	g.currentHandoff = hs
	g.metrics.handoffStarted.Add(1)
	return *hs, nil
}

// abortHandoff releases the slot after a validation failure before the
// run ever started.
func (g *Gateway) abortHandoff(reason string) {
	g.hmu.Lock()
	defer g.hmu.Unlock()
	if g.currentHandoff != nil {
		g.currentHandoff.Phase = PhaseFailed
		g.currentHandoff.Error = reason
		g.lastHandoff = g.currentHandoff
		g.currentHandoff = nil
	}
	g.metrics.handoffFailed.Add(1)
}

// setHandoffPhase advances the current handoff's phase.
func (g *Gateway) setHandoffPhase(phase string) {
	g.hmu.Lock()
	defer g.hmu.Unlock()
	if g.currentHandoff != nil {
		g.currentHandoff.Phase = phase
	}
}

// noteMoved records import progress.
func (g *Gateway) noteMoved(n int) {
	g.metrics.handoffUsersMoved.Add(int64(n))
	g.hmu.Lock()
	defer g.hmu.Unlock()
	if g.currentHandoff != nil {
		g.currentHandoff.Moved += n
	}
}

// handoffSnapshot returns copies of the current and last handoff
// status (nil when absent).
func (g *Gateway) handoffSnapshot() (current, last *HandoffStatus) {
	g.hmu.Lock()
	defer g.hmu.Unlock()
	if g.currentHandoff != nil {
		c := *g.currentHandoff
		current = &c
	}
	if g.lastHandoff != nil {
		l := *g.lastHandoff
		last = &l
	}
	return current, last
}

// handoffActive reports whether a handoff is running, and how long the
// current one has been.
func (g *Gateway) handoffActive() (bool, time.Duration) {
	g.hmu.Lock()
	defer g.hmu.Unlock()
	if g.currentHandoff == nil {
		return false, 0
	}
	return true, time.Since(g.currentHandoff.Started)
}

// startHandoff runs the claimed handoff in its own goroutine; Close
// cancels it through baseCtx and waits for it on handoffWG.
func (g *Gateway) startHandoff(kind, shard string) {
	g.handoffWG.Add(1)
	go g.runHandoff(kind, shard)
}

// runHandoff drives one handoff to completion.
func (g *Gateway) runHandoff(kind, shard string) {
	defer g.handoffWG.Done()
	ctx, cancel := context.WithTimeout(g.baseCtx, g.cfg.HandoffTimeout)
	defer cancel()
	var err error
	switch kind {
	case HandoffJoin:
		err = g.runJoin(ctx, shard)
	case HandoffDrain:
		err = g.runDrain(ctx, shard)
	default:
		err = fmt.Errorf("unknown handoff kind %q", kind)
	}
	g.clearQuiesce()
	g.hmu.Lock()
	hs := g.currentHandoff
	if hs != nil {
		if err != nil {
			hs.Phase = PhaseFailed
			hs.Error = err.Error()
		} else {
			hs.Phase = PhaseDone
		}
		g.lastHandoff = hs
		g.currentHandoff = nil
	}
	g.hmu.Unlock()
	if err != nil {
		g.metrics.handoffFailed.Add(1)
		g.logHandoff(slog.LevelWarn, kind, shard, "handoff failed", err)
		return
	}
	g.metrics.handoffCompleted.Add(1)
	g.logHandoff(slog.LevelInfo, kind, shard, "handoff complete", nil)
}

func (g *Gateway) logHandoff(level slog.Level, kind, shard, msg string, err error) {
	if g.cfg.Logger == nil {
		return
	}
	attrs := []slog.Attr{slog.String("kind", kind), slog.String("shard", shard)}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	g.cfg.Logger.LogAttrs(context.Background(), level, msg, attrs...)
}

// runJoin moves the joiner's future key ranges onto it, then flips the
// ring. On any failure before cutover the joiner returns to "joining"
// with the ring untouched: every donor is still authoritative for all
// of its users, and whatever subtrees the joiner already imported are
// unreachable (it owns nothing) and will be replaced wholesale by the
// next attempt's imports.
func (g *Gateway) runJoin(ctx context.Context, joiner string) error {
	plan, err := g.planJoin(ctx, joiner)
	if err != nil {
		g.setShardState(joiner, ShardJoining)
		return fmt.Errorf("plan: %w", err)
	}
	g.hmu.Lock()
	if g.currentHandoff != nil {
		g.currentHandoff.Users = plan.users()
	}
	g.hmu.Unlock()

	g.setHandoffPhase(PhaseQuiescing)
	g.quiesce(plan)

	g.setHandoffPhase(PhaseStreaming)
	if err := g.stream(ctx, plan); err != nil {
		g.setShardState(joiner, ShardJoining)
		g.persistTopologyLogged()
		return fmt.Errorf("stream: %w", err)
	}

	// The joiner missed every context activation from before it was
	// admitted (see activation.go): seed it with the union of the
	// authoritative shards' running instances, or its first owned
	// decision in a FirstStep-gated instance would go unrecorded.
	if err := g.syncActivations(ctx, []string{joiner}); err != nil {
		g.setShardState(joiner, ShardJoining)
		g.persistTopologyLogged()
		return fmt.Errorf("activation sync: %w", err)
	}

	g.setHandoffPhase(PhaseCutover)
	g.ring.Add(joiner)
	g.epoch.Add(1)
	g.setShardState(joiner, ShardActive)
	if err := g.persistTopology(); err != nil {
		// The new topology is live but not durable: keep the donors'
		// copies (skip release) so a gateway restarted from the stale
		// state file still finds full history at the old owners.
		// Leftover copies only ever add denials.
		g.logHandoff(slog.LevelWarn, HandoffJoin, joiner,
			"topology persist failed; skipping donor release (copies retained, deny-safe)", err)
		return nil
	}

	g.setHandoffPhase(PhaseReleasing)
	g.release(ctx, plan)
	return nil
}

// runDrain moves every user off the leaving shard, then drops it from
// the ring. Until cutover the leaver stays in the ring and stays
// authoritative — a failure anywhere before cutover returns it to
// "active" with nothing lost.
func (g *Gateway) runDrain(ctx context.Context, leaver string) error {
	plan, err := g.planDrain(ctx, leaver)
	if err != nil {
		g.setShardState(leaver, ShardActive)
		g.persistTopologyLogged()
		return fmt.Errorf("plan: %w", err)
	}
	g.hmu.Lock()
	if g.currentHandoff != nil {
		g.currentHandoff.Users = plan.users()
	}
	g.hmu.Unlock()

	g.setHandoffPhase(PhaseQuiescing)
	g.quiesce(plan)

	g.setHandoffPhase(PhaseStreaming)
	if err := g.stream(ctx, plan); err != nil {
		g.setShardState(leaver, ShardActive)
		g.persistTopologyLogged()
		return fmt.Errorf("stream: %w", err)
	}

	g.setHandoffPhase(PhaseCutover)
	g.ring.Remove(leaver)
	g.epoch.Add(1)
	g.setShardState(leaver, ShardGone)
	if err := g.persistTopology(); err != nil {
		g.logHandoff(slog.LevelWarn, HandoffDrain, leaver,
			"topology persist failed; skipping donor release (copies retained, deny-safe)", err)
		return nil
	}

	g.setHandoffPhase(PhaseReleasing)
	g.release(ctx, plan)
	return nil
}

// planJoin computes which users the joiner takes over: for every
// current member, the users it owns today whose next-ring owner is the
// joiner. Users listed by a shard that is NOT their ring owner are
// stale leftovers of an earlier release failure — deny-safe copies,
// never a source of truth — and are skipped so a user can never be
// imported from two donors (the second import's replace semantics
// would otherwise let a stale subset overwrite full history).
func (g *Gateway) planJoin(ctx context.Context, joiner string) (*handoffPlan, error) {
	next := g.ring.Clone()
	next.Add(joiner)
	plan := &handoffPlan{moves: make(map[string][]string), target: make(map[string]string)}
	for _, donor := range g.ring.Members() {
		users, err := g.donorUsers(ctx, donor)
		if err != nil {
			return nil, err
		}
		for _, u := range users {
			if owner, ok := g.ring.Lookup(u); !ok || owner != donor {
				continue // stale copy on a non-owner
			}
			if t, ok := next.Lookup(u); ok && t == joiner {
				plan.moves[donor] = append(plan.moves[donor], u)
				plan.target[u] = joiner
			}
		}
	}
	return plan, nil
}

// planDrain computes where the leaver's users go: each of its owned
// users maps to its owner on the ring without the leaver.
func (g *Gateway) planDrain(ctx context.Context, leaver string) (*handoffPlan, error) {
	next := g.ring.Clone()
	next.Remove(leaver)
	if next.Size() == 0 {
		return nil, fmt.Errorf("draining %s would empty the ring", leaver)
	}
	plan := &handoffPlan{moves: make(map[string][]string), target: make(map[string]string)}
	users, err := g.donorUsers(ctx, leaver)
	if err != nil {
		return nil, err
	}
	for _, u := range users {
		if owner, ok := g.ring.Lookup(u); !ok || owner != leaver {
			continue // stale copy: another shard is authoritative
		}
		t, ok := next.Lookup(u)
		if !ok {
			return nil, fmt.Errorf("no next owner for user %q", u)
		}
		plan.moves[leaver] = append(plan.moves[leaver], u)
		plan.target[u] = t
	}
	return plan, nil
}

// donorUsers lists a donor's retained-ADI users.
func (g *Gateway) donorUsers(ctx context.Context, donor string) ([]string, error) {
	c, ok := g.client(donor)
	if !ok {
		return nil, fmt.Errorf("donor %s has no client", donor)
	}
	resp, err := c.HandoffUsers(ctx)
	if err != nil {
		return nil, fmt.Errorf("donor %s user list: %w", donor, err)
	}
	return resp.Users, nil
}

// quiesce opens the fail-closed window: it marks the moving users as
// in transit (their decisions refuse with 503 + Retry-After). A request
// routed on a user who stays cannot commit for a moving one: a shard
// run -handoff refuses, before anything is evaluated, one that resolves
// to another subject than it was routed on (421). It then takes the
// traffic barrier write lock once: every routed request admitted before
// the marks went up holds the read lock for its full duration, so when
// the write lock is acquired, nothing admitted pre-mark is still
// running — no commit for a moving user can land on a donor after the
// export snapshot is taken.
func (g *Gateway) quiesce(plan *handoffPlan) {
	g.hmu.Lock()
	g.transit = make(map[string]bool, len(plan.target))
	for u := range plan.target {
		g.transit[u] = true
	}
	g.hmu.Unlock()
	g.traffic.Lock()
	//lint:ignore SA2001 the empty critical section IS the barrier:
	// acquiring the write lock proves every pre-mark reader finished.
	g.traffic.Unlock()
}

// clearQuiesce closes the fail-closed window.
func (g *Gateway) clearQuiesce() {
	g.hmu.Lock()
	g.transit = nil
	g.hmu.Unlock()
}

// inTransit reports whether user's history is mid-handoff: a decision
// routed on it refuses fail-closed, and an answer whose resolved
// subject it is is withheld.
func (g *Gateway) inTransit(user string) bool {
	g.hmu.Lock()
	defer g.hmu.Unlock()
	return g.transit[user]
}

// stream copies every moving user's retained-ADI subtree from its
// donor to its target: per (donor, target) pair, one consistent
// subtree-scoped snapshot exported under the donor's commit lock, then
// imported with per-user replace semantics. The donors are quiesced
// for all moving users, so the snapshots cannot miss a commit.
//
// A copy excludes closes (g.closing): a LastStep granted meanwhile by a
// user who is not moving would otherwise be queued for the target before
// its import and for the donor after its export, and the import would
// carry the closed instance's records back in. Held exclusively per
// pair, a close is queued for both before the export request — which
// then carries it, so the donor exports what is left — or for both
// after the import. LastStep answers wait out the copy; nothing else
// does.
func (g *Gateway) stream(ctx context.Context, plan *handoffPlan) error {
	for _, donor := range plan.donors() {
		groups := make(map[string][]string)
		for _, u := range plan.moves[donor] {
			groups[plan.target[u]] = append(groups[plan.target[u]], u)
		}
		targets := make([]string, 0, len(groups))
		for t := range groups {
			targets = append(targets, t)
		}
		sort.Strings(targets)
		donorClient, ok := g.client(donor)
		if !ok {
			return fmt.Errorf("donor %s has no client", donor)
		}
		for _, target := range targets {
			users := groups[target]
			sort.Strings(users)
			targetClient, ok := g.client(target)
			if !ok {
				return fmt.Errorf("target %s has no client", target)
			}
			if err := g.copyUsers(ctx, donor, donorClient, target, targetClient, users); err != nil {
				return err
			}
			g.noteMoved(len(users))
		}
	}
	return nil
}

// copyUsers is one export and its import, with no close queued between
// the two (see stream).
func (g *Gateway) copyUsers(ctx context.Context, donor string, from *server.Client, target string, to *server.Client, users []string) error {
	g.closing.Lock()
	defer g.closing.Unlock()
	snap, err := from.ReplicaSnapshotUsers(ctx, users)
	if err != nil {
		return fmt.Errorf("export %d user(s) from %s: %w", len(users), donor, err)
	}
	if _, err := to.HandoffImport(ctx, snap); err != nil {
		return fmt.Errorf("import %d user(s) into %s: %w", len(users), target, err)
	}
	return nil
}

// release purges the moved users from their donors, after cutover and
// after the new topology persisted. Best-effort by design: a failed
// release leaves extra copies on shards that no longer own the users,
// which can only ever add denials — never a false grant — and the next
// handoff involving those users skips the stale copies during
// planning.
func (g *Gateway) release(ctx context.Context, plan *handoffPlan) {
	for _, donor := range plan.donors() {
		c, ok := g.client(donor)
		if !ok {
			continue
		}
		if _, err := c.HandoffRelease(ctx, plan.moves[donor]); err != nil {
			g.logHandoff(slog.LevelWarn, "release", donor,
				"post-cutover release failed; donor keeps deny-safe copies", err)
		}
	}
}
