package replica

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/server"
)

// ErrStale reports that the replica cannot prove its answer is within
// the staleness bound — it is resyncing, or it has not heard from the
// owner (events, keep-alives, connections all count as contact) within
// MaxStaleness. The contract is "refuse rather than answer stale": the
// caller should ask the owner. Test with errors.Is.
var ErrStale = errors.New("replica: staleness bound exceeded; ask the owner")

// Defaults for Config zero values.
const (
	// DefaultMaxStaleness must exceed the owner's SSE keep-alive
	// interval (15s), or an idle but perfectly healthy replica would
	// flap stale between heartbeats.
	DefaultMaxStaleness     = 30 * time.Second
	DefaultReconnectBackoff = 500 * time.Millisecond
	DefaultResyncBackoff    = time.Second
)

// Config assembles a Follower.
type Config struct {
	// Owner is the base URL of the owning shard (a msodd instance with
	// the event broker enabled). Required. Note it is one shard, not a
	// gateway: the gateway's fan-in event stream has no total order
	// across shards, so it cannot feed a mirror.
	Owner string
	// Policy is the parsed policy, which must be the same document the
	// owner runs. Required.
	Policy *policy.RBACPolicy
	// HierarchyAwareMSoD mirrors the owner's setting.
	HierarchyAwareMSoD bool
	// MaxStaleness bounds how long since last owner contact the
	// replica keeps answering (default DefaultMaxStaleness; negative
	// disables the bound — not recommended outside tests).
	MaxStaleness time.Duration
	// ReconnectBackoff paces stream reconnects (default 500ms).
	ReconnectBackoff time.Duration
	// ResyncBackoff paces retries after a failed resync (default 1s).
	ResyncBackoff time.Duration
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// SnapshotTimeout bounds the snapshot fetch (default 1m).
	SnapshotTimeout time.Duration
	// Logger, when non-nil, receives follower lifecycle events
	// (resyncs, gaps, divergences).
	Logger *slog.Logger
}

// Follower keeps a Mirror converged with its owner: bootstrap from a
// snapshot, then follow the event stream with sequence resume. Any
// loss of continuity — a stream gap past the owner's ring, a detected
// divergence, an owner restart — forces a full resync before the
// replica serves again.
type Follower struct {
	cfg    Config
	mirror *Mirror
	client *server.Client
	log    *slog.Logger

	// syncing is true from the moment continuity is lost until the
	// next resync completes; the replica refuses to serve while set.
	syncing atomic.Bool
	// lastContact is the wall time (UnixNano) of the last sign of life
	// from the owner; staleness is measured from it.
	lastContact atomic.Int64

	resyncs     atomic.Int64
	applied     atomic.Int64
	divergences atomic.Int64

	// applyHist times each mirror event-apply (the replica-side
	// analogue of the owner's store stage), with the owner's trace ID
	// as exemplar — so a latency spike here points straight at a
	// retained trace on the owner via msodctl trace.
	applyHist *obsv.Histogram
}

// Status is a consistent-enough snapshot of follower state for health
// answers and metrics.
type Status struct {
	// Syncing is true while a full resync is pending or in progress.
	Syncing bool
	// AppliedSeq is the owner sequence number applied through.
	AppliedSeq uint64
	// Staleness is the time since last owner contact.
	Staleness time.Duration
	// Records is the mirror's retained record count.
	Records int
	// Resyncs counts full state resyncs (including the bootstrap one).
	Resyncs int64
	// Applied counts events applied to the mirror.
	Applied int64
	// Divergences counts apply-time divergences detected.
	Divergences int64
}

// New builds a follower. Call Run to start it; the replica refuses all
// answers until the first resync completes.
func New(cfg Config) (*Follower, error) {
	if cfg.Owner == "" {
		return nil, errors.New("replica: config: owner URL required")
	}
	if cfg.Policy == nil {
		return nil, errors.New("replica: config: policy required")
	}
	if cfg.MaxStaleness == 0 {
		cfg.MaxStaleness = DefaultMaxStaleness
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = DefaultReconnectBackoff
	}
	if cfg.ResyncBackoff <= 0 {
		cfg.ResyncBackoff = DefaultResyncBackoff
	}
	if cfg.SnapshotTimeout <= 0 {
		cfg.SnapshotTimeout = time.Minute
	}
	mirror, err := NewMirror(cfg.Policy, cfg.HierarchyAwareMSoD)
	if err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	f := &Follower{
		cfg:       cfg,
		mirror:    mirror,
		client:    server.NewClient(cfg.Owner, cfg.HTTPClient, server.WithTimeout(cfg.SnapshotTimeout)),
		log:       log,
		applyHist: obsv.NewHistogram(obsv.DefaultDurationBuckets),
	}
	f.syncing.Store(true)
	return f, nil
}

// Mirror exposes the follower's mirror (advisory surface, browsing).
func (f *Follower) Mirror() *Mirror { return f.mirror }

// Owner returns the owner's base URL.
func (f *Follower) Owner() string { return f.cfg.Owner }

// MaxStaleness returns the effective staleness bound (zero or negative
// means unbounded).
func (f *Follower) MaxStaleness() time.Duration { return f.cfg.MaxStaleness }

// Status reports follower state.
func (f *Follower) Status() Status {
	return Status{
		Syncing:     f.syncing.Load(),
		AppliedSeq:  f.mirror.AppliedSeq(),
		Staleness:   f.staleness(),
		Records:     f.mirror.Records(),
		Resyncs:     f.resyncs.Load(),
		Applied:     f.applied.Load(),
		Divergences: f.divergences.Load(),
	}
}

func (f *Follower) staleness() time.Duration {
	last := f.lastContact.Load()
	if last == 0 {
		// Never heard from the owner.
		return time.Duration(1<<63 - 1)
	}
	return time.Since(time.Unix(0, last))
}

// Fresh reports whether the replica may answer under the staleness
// contract: synced, and within the bound.
func (f *Follower) Fresh() bool {
	if f.syncing.Load() {
		return false
	}
	if f.cfg.MaxStaleness < 0 {
		return true
	}
	return f.staleness() <= f.cfg.MaxStaleness
}

// Advise answers a side-effect-free advisory decision from the mirror,
// refusing with ErrStale when freshness cannot be proven. On success
// the decision is exactly what the owner's advisory path would answer
// at the applied sequence number.
func (f *Follower) Advise(req pdp.Request) (pdp.Decision, error) {
	if !f.Fresh() {
		st := f.Status()
		if st.Syncing {
			return pdp.Decision{}, fmt.Errorf("%w: resync in progress", ErrStale)
		}
		return pdp.Decision{}, fmt.Errorf("%w: last owner contact %s ago exceeds the %s bound",
			ErrStale, st.Staleness.Round(time.Millisecond), f.cfg.MaxStaleness)
	}
	return f.mirror.Advise(req)
}

// touch records a sign of life from the owner.
func (f *Follower) touch() {
	f.lastContact.Store(time.Now().UnixNano())
}

// Run drives the resync-then-follow loop until the context is
// cancelled. It returns ctx.Err() on cancellation, or a terminal error
// when the owner is fundamentally incompatible (different policy ID).
func (f *Follower) Run(ctx context.Context) error {
	for ctx.Err() == nil {
		if err := f.resync(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var mismatch *policyMismatchError
			if errors.As(err, &mismatch) {
				// Retrying cannot help: same URL, wrong policy. Serving
				// would answer from alien history.
				return err
			}
			f.log.Warn("replica resync failed; retrying", "owner", f.cfg.Owner, "error", err)
			if !sleepContext(ctx, f.cfg.ResyncBackoff) {
				return ctx.Err()
			}
			continue
		}
		err := f.follow(ctx)
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, server.ErrEventGap), errors.Is(err, ErrResync):
			// Events rotated past the resume point (or the owner
			// restarted), or one did not carry its records: the mirror
			// has a hole it cannot stream over.
			f.syncing.Store(true)
			f.log.Warn("replica cannot stream on; forcing full resync", "owner", f.cfg.Owner, "appliedSeq", f.mirror.AppliedSeq(), "error", err)
		case errors.Is(err, ErrDiverged):
			f.syncing.Store(true)
			f.divergences.Add(1)
			f.log.Error("replica mirror diverged; forcing full resync", "owner", f.cfg.Owner, "error", err)
		default:
			// A deliberate refusal that reconnecting inside the stream
			// could not heal (e.g. events disabled); resyncing retries
			// from scratch after a pause.
			f.syncing.Store(true)
			f.log.Warn("replica stream ended; resyncing", "owner", f.cfg.Owner, "error", err)
			if !sleepContext(ctx, f.cfg.ResyncBackoff) {
				return ctx.Err()
			}
		}
	}
	return ctx.Err()
}

// policyMismatchError is terminal: the owner runs a different policy.
type policyMismatchError struct{ owner, mine string }

func (e *policyMismatchError) Error() string {
	return fmt.Sprintf("replica: owner runs policy %q, replica compiled %q; refusing to follow", e.owner, e.mine)
}

// resync rebuilds the mirror from a fresh owner snapshot.
func (f *Follower) resync(ctx context.Context) error {
	f.syncing.Store(true)
	snap, err := f.client.ReplicaSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("replica: snapshot: %w", err)
	}
	if snap.Policy != f.mirror.PolicyID() {
		return &policyMismatchError{owner: snap.Policy, mine: f.mirror.PolicyID()}
	}
	if err := f.mirror.Reset(snap); err != nil {
		return err
	}
	f.resyncs.Add(1)
	f.touch()
	f.syncing.Store(false)
	f.log.Info("replica resynced", "owner", f.cfg.Owner, "seq", snap.Seq, "records", len(snap.Records))
	return nil
}

// follow tails the owner's event stream with sequence resume, applying
// each event to the mirror. It returns on context cancellation, a
// stream gap, a detected divergence, or a permanent stream refusal —
// transient transport failures are reconnected internally by
// FollowEvents.
func (f *Follower) follow(ctx context.Context) error {
	return f.client.FollowEvents(ctx, server.FollowEventsOptions{
		Resume:           true,
		ResumeAfter:      f.mirror.AppliedSeq(),
		ReconnectBackoff: f.cfg.ReconnectBackoff,
		OnHeartbeat:      f.touch,
	}, func(ev inspect.DecisionEvent) error {
		start := time.Now()
		if err := f.mirror.Apply(ev); err != nil {
			return err
		}
		// The owner's trace ID rides along as exemplar: a slow apply
		// on a replica points straight at the owner's retained trace.
		f.applyHist.ObserveExemplar(time.Since(start), ev.TraceID)
		f.applied.Add(1)
		f.touch()
		return nil
	})
}

// sleepContext waits d or until the context ends, reporting whether the
// full wait elapsed.
func sleepContext(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// discardHandler is a no-op slog handler for followers without a
// logger.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
