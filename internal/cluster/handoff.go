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
// ownership the membership change reassigns, and every key whose owner
// it changes, with history or without, is refused fail-closed — never
// answered from partial history — between quiesce and cutover.
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

// handoffPlan is the computed ownership delta: the next ring, and which
// users leave which donor for their owner on it.
type handoffPlan struct {
	next *Ring
	// moves maps donor shard -> the users leaving it, sorted.
	moves map[string][]string
}

func (p *handoffPlan) users() int {
	n := 0
	for _, us := range p.moves {
		n += len(us)
	}
	return n
}

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

// membershipMove is one join or drain of shard, as startHandoff derives
// it. Until cutover every donor stays authoritative for all of its
// users, so a failure before it returns shard to restore with the ring
// untouched; subtrees already imported sit on shards that do not own
// them (deny-safe copies, replaced wholesale by the next attempt's).
type membershipMove struct {
	join  bool   // a join admits shard to the ring; a drain retires it
	shard string // the joiner or the leaver
	// next is the ring after cutover, and donors the shards whose users
	// it moves: a join's current ring members, a drain's leaver.
	next   *Ring
	donors []string
	// cutover is the shard's state once the ring has flipped; restore
	// its state after a failure before that.
	cutover, restore ShardState
}

// kind is the move's HandoffStatus.Kind.
func (m membershipMove) kind() string {
	if m.join {
		return HandoffJoin
	}
	return HandoffDrain
}

// flip makes on r the ring change the move's cutover makes.
func (m membershipMove) flip(r *Ring) {
	if m.join {
		r.Add(m.shard)
	} else {
		r.Remove(m.shard)
	}
}

// startHandoff derives the claimed join or drain of shard from the ring
// as it stands and runs it in its own goroutine; Close cancels it
// through baseCtx and waits for it on handoffWG.
func (g *Gateway) startHandoff(join bool, shard string) {
	m := membershipMove{join: join, shard: shard, next: g.ring.Clone()}
	if join {
		m.donors, m.cutover, m.restore = g.ring.Members(), ShardActive, ShardJoining
	} else {
		m.donors, m.cutover, m.restore = []string{shard}, ShardGone, ShardActive
	}
	m.flip(m.next)
	g.handoffWG.Add(1)
	go g.runHandoff(m)
}

// runHandoff drives one handoff to completion.
func (g *Gateway) runHandoff(m membershipMove) {
	defer g.handoffWG.Done()
	ctx, cancel := context.WithTimeout(g.baseCtx, g.cfg.HandoffTimeout)
	defer cancel()
	err := g.move(ctx, m)
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
		g.logHandoff(slog.LevelWarn, m.kind(), m.shard, "handoff failed", err)
		return
	}
	g.metrics.handoffCompleted.Add(1)
	g.logHandoff(slog.LevelInfo, m.kind(), m.shard, "handoff complete", nil)
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

// move copies the users m's next ring gives new owners to them, then
// flips the ring and releases the donors' copies.
func (g *Gateway) move(ctx context.Context, m membershipMove) error {
	plan, err := g.copyMoving(ctx, m)
	if err != nil {
		g.setShardState(m.shard, m.restore)
		g.persistTopologyLogged()
		return err
	}

	g.setHandoffPhase(PhaseCutover)
	m.flip(g.ring)
	g.epoch.Add(1)
	g.setShardState(m.shard, m.cutover)
	if err := g.persistTopology(); err != nil {
		// The new topology is live but not durable: keep the donors'
		// copies (skip release) so a gateway restarted from the stale
		// state file still finds full history at the old owners.
		// Leftover copies only ever add denials.
		g.logHandoff(slog.LevelWarn, m.kind(), m.shard,
			"topology persist failed; skipping donor release (copies retained, deny-safe)", err)
		return nil
	}

	g.setHandoffPhase(PhaseReleasing)
	g.release(ctx, plan)
	return nil
}

// copyMoving is everything before cutover: the plan, the copies and a
// joiner's seeding. A joiner missed every context activation from
// before it was admitted (see activation.go): it is seeded with the
// union of the authoritative shards' running instances, or its first
// owned decision in a FirstStep-gated instance would go unrecorded.
func (g *Gateway) copyMoving(ctx context.Context, m membershipMove) (*handoffPlan, error) {
	plan, err := g.plan(ctx, m.next, m.donors)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	g.setHandoffPhase(PhaseStreaming)
	if err := g.stream(ctx, plan); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if m.join {
		if err := g.syncActivations(ctx, []string{m.shard}); err != nil {
			return nil, fmt.Errorf("activation sync: %w", err)
		}
	}
	return plan, nil
}

// plan opens the handoff window for the next ring, then lists who it
// moves: the users each donor owns today whose owner on next is another
// shard. The window comes first, so a user first seen while the donors
// list theirs is refused rather than missed. Users listed by a shard
// that is NOT their ring owner are stale leftovers of an earlier release
// failure — deny-safe copies, never a source of truth — and are skipped
// so a user can never be imported from two donors (the second import's
// replace semantics would otherwise let a stale subset overwrite full
// history).
func (g *Gateway) plan(ctx context.Context, next *Ring, donors []string) (*handoffPlan, error) {
	g.setHandoffPhase(PhaseQuiescing)
	g.quiesce(next)
	plan := &handoffPlan{next: next, moves: make(map[string][]string)}
	for _, donor := range donors {
		users, err := g.donorUsers(ctx, donor)
		if err != nil {
			return nil, err
		}
		for _, u := range users {
			if owner, ok := g.ring.Lookup(u); !ok || owner != donor {
				continue // stale copy on a non-owner
			}
			if to, _ := next.Lookup(u); to != donor {
				plan.moves[donor] = append(plan.moves[donor], u)
			}
		}
	}
	g.hmu.Lock()
	if g.currentHandoff != nil {
		g.currentHandoff.Users = plan.users()
	}
	g.hmu.Unlock()
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

// quiesce opens the fail-closed window: while it is open every key
// whose owner the next ring changes is in transit, whether or not it has
// history, and its decisions and advisories refuse with 503 +
// Retry-After before they are sent. A request routed on a key that stays
// cannot commit for a moving one: every shard refuses, before anything
// is evaluated, one that resolves to another subject than it was routed
// on (421). It then takes the traffic barrier write lock once: every
// routed request admitted before the window opened holds the read lock
// for its full duration, so when the write lock is acquired, nothing
// admitted before it is still running — no commit for a moving key can
// land on a donor after the donors list their users or export them.
func (g *Gateway) quiesce(next *Ring) {
	g.hmu.Lock()
	g.next = next
	g.hmu.Unlock()
	g.traffic.Lock()
	//lint:ignore SA2001 the empty critical section IS the barrier:
	// acquiring the write lock proves every pre-window reader finished.
	g.traffic.Unlock()
}

// clearQuiesce closes the fail-closed window.
func (g *Gateway) clearQuiesce() {
	g.hmu.Lock()
	g.next = nil
	g.hmu.Unlock()
}

// inTransit reports whether a handoff window is open and its next ring
// gives key another owner than the ring routes it to. It reads the
// window before the ring: a request that finds no window open and then
// looks up its owner either meets the ring a finished handoff left, or
// holds the traffic barrier that the next handoff waits on.
func (g *Gateway) inTransit(key string) bool {
	g.hmu.Lock()
	next := g.next
	g.hmu.Unlock()
	if next == nil {
		return false
	}
	owner, _ := g.ring.Lookup(key)
	to, _ := next.Lookup(key)
	return owner != to
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
			to, _ := plan.next.Lookup(u)
			groups[to] = append(groups[to], u)
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
