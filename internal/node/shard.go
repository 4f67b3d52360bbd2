package node

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/fsx"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/policycheck"
	"msod/internal/replica"
	"msod/internal/server"
	"msod/internal/trace"
)

// Config is msodd's configuration: one field per flag, named in its
// comment, plus the filesystem seam. The zero value of a field is the
// flag's default unless its comment says otherwise.
type Config struct {
	Policy             string        // -policy: the RBACPolicy XML document (required)
	Addr               string        // -addr (the daemon listens; node does not)
	Trail              string        // -trail: audit trail directory ("" disables the trail)
	TrailKeyFile       string        // -trail-key-file
	TrailSegment       int           // -trail-segment: entries per segment (0: audit.DefaultSegmentSize)
	Recover            string        // -recover: "none" (or ""), "trail" or "snapshot"
	Snapshot           string        // -snapshot
	SnapshotSecretFile string        // -snapshot-secret-file
	ADI                string        // -adi: durable retained ADI, synced on every write; overrides Recover
	ADISecretFile      string        // -adi-secret-file
	MaxInflight        int           // -max-inflight (0: unbounded)
	ShedRetryAfter     time.Duration // -shed-retry-after
	Handoff            bool          // -handoff
	SlowLog            time.Duration // -slowlog (0 disables)
	Pprof              string        // -pprof
	PprofAllowRemote   bool          // -pprof-allow-remote
	SentinelInterval   time.Duration // -sentinel-interval (0 disables)
	SentinelFailClosed bool          // -sentinel-fail-closed
	ReplicaOf          string        // -replica-of: serve as an advisory replica of this owner
	MaxStaleness       time.Duration // -max-staleness
	ExplainCapacity    int           // -explain-capacity
	TraceCapacity      int           // -trace-capacity
	TraceSample        int           // -trace-sample
	TraceSlowThreshold time.Duration // -trace-slow-threshold
	SLOLatencyP99      time.Duration // -slo-latency-p99 (0 disables the SLO layer)
	SLOGoal            float64       // -slo-goal
	SLOWindow          time.Duration // -slo-window
	VerifyPolicies     bool          // -verify-policies

	// FS is what the durable ADI and the trail are written through
	// (fsx.OS when nil).
	FS fsx.FS
}

// Validate refuses a configuration whose flags cannot both hold,
// naming the pair.
func (c Config) Validate() error {
	if c.Policy == "" {
		return errors.New("-policy is required")
	}
	if c.ReplicaOf != "" {
		// A replica holds no authority and writes nothing: every flag
		// implying authoritative state is a configuration error, not a
		// silent no-op.
		switch {
		case c.Trail != "":
			return errors.New("-replica-of conflicts with -trail (replicas write no audit trail)")
		case c.ADI != "":
			return errors.New("-replica-of conflicts with -adi (the mirror is rebuilt from the owner, never persisted)")
		case c.Recover != "" && c.Recover != "none":
			return errors.New("-replica-of conflicts with -recover (replicas bootstrap from the owner's snapshot)")
		case c.Snapshot != "" || c.SnapshotSecretFile != "":
			return errors.New("-replica-of conflicts with -snapshot")
		case c.SentinelInterval > 0:
			return errors.New("-replica-of conflicts with -sentinel-interval (replicas hold no trail to verify)")
		case c.Handoff:
			return errors.New("-replica-of conflicts with -handoff (replicas hold no authoritative history to stream)")
		}
	}
	if c.Handoff && c.Recover == "trail" && c.ADI == "" {
		// A cluster shard's retained ADI also changes by what the gateway
		// tells it — peers' activations and closes, handoff imports and
		// releases, management purges — and the trail records none of it:
		// replay re-evaluates granted decisions only, so the shard would come
		// back without the instances its peers opened, and grant in them
		// unrecorded. -adi (which overrides -recover) keeps all of it.
		return errors.New("-recover trail conflicts with -handoff (trail replay restores granted decisions only, not the activations, closes and handoffs a cluster shard is told of; use -adi)")
	}
	return nil
}

// Shard is what msodd serves: the HTTP surface of one PDP over its
// retained ADI, trail and telemetry, or with ReplicaOf an advisory
// replica's. Reload swaps the PDP under a live handler.
type Shard struct {
	cfg    Config
	logger *slog.Logger

	// cur is read on every request, so a reload swaps it atomically.
	cur    atomic.Pointer[server.Server]
	opts   []server.Option
	store  adi.Recorder
	trail  *audit.Writer
	broker *inspect.Broker
	// verify, with VerifyPolicies, carries the latest boot-gate outcome
	// to the health and metrics surfaces across reloads.
	verify *server.VerificationStatus
	// closers release what the shard opened, in reverse on Close.
	closers []func() error

	// follower and replica replace cur in replica mode.
	follower *replica.Follower
	replica  http.Handler
}

// NewShard builds the shard cfg describes: it loads the policy (and
// with VerifyPolicies model-checks it), opens or recovers the retained
// ADI, opens the trail and starts the sentinel.
func NewShard(cfg Config, logger *slog.Logger) (*Shard, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.FS == nil {
		cfg.FS = fsx.OS
	}
	s := &Shard{cfg: cfg, logger: logger}
	if cfg.VerifyPolicies {
		s.verify = &server.VerificationStatus{}
	}
	pol, err := s.loadPolicy()
	if err != nil {
		return nil, err
	}
	if cfg.ReplicaOf != "" {
		f, err := replica.New(replica.Config{
			Owner: cfg.ReplicaOf, Policy: pol, MaxStaleness: cfg.MaxStaleness, Logger: logger,
		})
		if err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
		s.follower, s.replica = f, replica.NewServer(f)
		infof(logger, "replica of %s (policy %q, max staleness %s)", cfg.ReplicaOf, pol.ID, f.MaxStaleness())
		return s, nil
	}
	if err := s.build(pol); err != nil {
		return nil, errors.Join(err, s.Close())
	}
	return s, nil
}

func (s *Shard) build(pol *policy.RBACPolicy) error {
	cfg := s.cfg
	var trailKey []byte
	if cfg.TrailKeyFile != "" {
		k, err := os.ReadFile(cfg.TrailKeyFile)
		if err != nil {
			return fmt.Errorf("read trail key: %w", err)
		}
		trailKey = []byte(strings.TrimSpace(string(k)))
	}
	var err error
	if s.store, err = s.openStore(pol, trailKey); err != nil {
		return err
	}
	if cfg.Trail != "" {
		if len(trailKey) == 0 {
			return errors.New("-trail needs -trail-key-file")
		}
		w, err := audit.NewWriterFS(cfg.Trail, trailKey, cfg.TrailSegment, cfg.FS)
		if err != nil {
			return fmt.Errorf("open trail: %w", err)
		}
		s.trail = w
		s.closers = append(s.closers, w.Close)
	}
	s.broker = inspect.NewBroker(0)
	if cfg.SentinelInterval > 0 {
		if cfg.Trail == "" || len(trailKey) == 0 {
			return errors.New("-sentinel-interval needs -trail and -trail-key-file")
		}
		sent, err := inspect.NewSentinel(inspect.SentinelConfig{
			Dir: cfg.Trail, Key: trailKey, Interval: cfg.SentinelInterval, Logger: s.logger,
		})
		if err != nil {
			return fmt.Errorf("sentinel: %w", err)
		}
		sent.Start()
		s.closers = append(s.closers, func() error { sent.Stop(); return nil })
		s.opts = append(s.opts, server.WithSentinel(sent, cfg.SentinelFailClosed))
		infof(s.logger, "audit-chain sentinel checking every %s (fail-closed=%v)",
			cfg.SentinelInterval, cfg.SentinelFailClosed)
	}
	s.opts = append(s.opts, s.serverOptions()...)
	id, err := s.install(pol)
	if err != nil {
		return err
	}
	infof(s.logger, "policy %q loaded", id)
	return nil
}

// openStore opens the retained ADI: the durable store when ADI is set,
// else what Recover restores, else an empty memory store.
func (s *Shard) openStore(pol *policy.RBACPolicy, trailKey []byte) (adi.Recorder, error) {
	cfg := s.cfg
	if cfg.ADI != "" {
		if cfg.ADISecretFile == "" {
			return nil, errors.New("-adi needs -adi-secret-file")
		}
		secret, err := os.ReadFile(cfg.ADISecretFile)
		if err != nil {
			return nil, fmt.Errorf("read ADI secret: %w", err)
		}
		// Every mutation is synced before it is acknowledged: a grant
		// the PEP saw must survive power loss.
		ds, err := adi.OpenDurableFS(cfg.ADI, secret, true, cfg.FS)
		if err != nil {
			return nil, fmt.Errorf("open durable ADI: %w", err)
		}
		s.closers = append(s.closers, func() error {
			if err := ds.Compact(); err != nil {
				return errors.Join(fmt.Errorf("compact durable ADI: %w", err), ds.Close())
			}
			return ds.Close()
		})
		infof(s.logger, "durable retained ADI open with %d records", ds.Len())
		return ds, nil
	}
	switch cfg.Recover {
	case "", "none":
		return adi.NewStore(), nil
	case "trail":
		if cfg.Trail == "" || len(trailKey) == 0 {
			return nil, errors.New("-recover trail needs -trail and -trail-key-file")
		}
		store, stats, err := pdp.Recover(pol, pdp.RecoveryConfig{
			Mode: pdp.RecoverFromTrail, TrailDir: cfg.Trail, TrailKey: trailKey,
		})
		if err != nil {
			return nil, fmt.Errorf("trail recovery: %w", err)
		}
		infof(s.logger, "recovered %d retained-ADI records from %d events (%d diverged)",
			stats.Records, stats.Events, stats.Diverged)
		return store, nil
	case "snapshot":
		if cfg.Snapshot == "" || cfg.SnapshotSecretFile == "" {
			return nil, errors.New("-recover snapshot needs -snapshot and -snapshot-secret-file")
		}
		secret, err := os.ReadFile(cfg.SnapshotSecretFile)
		if err != nil {
			return nil, fmt.Errorf("read snapshot secret: %w", err)
		}
		snap, err := adi.NewSecureStore(cfg.Snapshot, secret)
		if err != nil {
			return nil, fmt.Errorf("open snapshot: %w", err)
		}
		store, stats, err := pdp.Recover(pol, pdp.RecoveryConfig{
			Mode: pdp.RecoverFromSnapshot, Snapshot: snap,
		})
		if err != nil {
			return nil, fmt.Errorf("snapshot recovery: %w", err)
		}
		infof(s.logger, "loaded %d retained-ADI records from snapshot", stats.Records)
		return store, nil
	}
	return nil, fmt.Errorf("unknown -recover mode %q", cfg.Recover)
}

// loadPolicy reads, parses and lints the policy file. With
// VerifyPolicies the full model check runs instead — honouring the
// document's msod:ignore suppressions — and error-severity findings
// refuse the policy (fail closed).
func (s *Shard) loadPolicy() (*policy.RBACPolicy, error) {
	raw, err := os.ReadFile(s.cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("read policy: %w", err)
	}
	if s.cfg.VerifyPolicies {
		res, err := policycheck.CheckSource(raw, policycheck.Config{})
		if err != nil {
			return nil, fmt.Errorf("parse policy: %w", err)
		}
		for _, f := range res.Findings {
			infof(s.logger, "policy %s", f)
		}
		if n := res.Errors(); n > 0 {
			return nil, fmt.Errorf("policy verification failed: %d error-severity finding(s); refusing to serve an unenforceable policy (fail closed)", n)
		}
		s.verify.Set(res.Warnings(), res.Suppressed)
		return res.Policy, nil
	}
	pol, err := policy.ParseRBACPolicy(raw)
	if err != nil {
		return nil, fmt.Errorf("parse policy: %w", err)
	}
	// Surface lint findings; they do not block.
	if findings, err := policy.Lint(pol); err == nil {
		for _, f := range findings {
			infof(s.logger, "policy %s", f)
		}
	}
	return pol, nil
}

// install builds a PDP from pol over the shard's retained ADI, trail
// and broker, and swaps it in under the live handler.
func (s *Shard) install(pol *policy.RBACPolicy) (policyID string, err error) {
	p, err := pdp.New(pdp.Config{
		Policy: pol, Store: s.store, Trail: s.trail,
		Observer: func(ev inspect.DecisionEvent) { s.broker.Publish(ev) },
	})
	if err != nil {
		return "", fmt.Errorf("build PDP: %w", err)
	}
	s.cur.Store(server.New(p, s.opts...))
	return p.PolicyID(), nil
}

// serverOptions are the server options of the first build and every
// reload; the telemetry they hold is built once, so retained traces and
// the error-budget window survive a reload.
func (s *Shard) serverOptions() []server.Option {
	cfg := s.cfg
	opts := []server.Option{server.WithEventBroker(s.broker)}
	if s.verify != nil {
		opts = append(opts, server.WithPolicyVerification(s.verify))
	}
	if cfg.ExplainCapacity != 0 {
		opts = append(opts, server.WithExplainCapacity(cfg.ExplainCapacity))
	}
	if cfg.TraceCapacity >= 0 {
		opts = append(opts, server.WithTraceStore(trace.NewStore(trace.Config{
			Capacity:      cfg.TraceCapacity,
			SampleEvery:   cfg.TraceSample,
			SlowThreshold: cfg.TraceSlowThreshold,
		})))
	}
	if cfg.SLOLatencyP99 > 0 {
		opts = append(opts, server.WithSLO(obsv.NewSLO(obsv.SLOConfig{
			Goal: cfg.SLOGoal, Latency: cfg.SLOLatencyP99, Window: cfg.SLOWindow,
		})))
	}
	if cfg.SlowLog > 0 {
		opts = append(opts, server.WithDecisionLog(s.logger, cfg.SlowLog))
	}
	if cfg.MaxInflight > 0 {
		opts = append(opts, server.WithAdmissionLimit(cfg.MaxInflight, cfg.ShedRetryAfter))
	}
	if cfg.Handoff {
		opts = append(opts, server.WithHandoff())
	}
	if ds, ok := s.store.(*adi.DurableStore); ok {
		opts = append(opts,
			server.WithGauge("msod_adi_recovery_seconds",
				"Time spent recovering the durable retained ADI at startup.",
				func() float64 { return ds.RecoveryDuration().Seconds() }),
			server.WithGauge("msod_adi_durable_bytes",
				"On-disk size of the durable retained ADI (snapshot + WAL).",
				func() float64 { return float64(ds.DiskUsage()) }),
		)
	}
	return opts
}

// Reload builds a PDP from the policy file as it is now, over the same
// retained ADI, trail and telemetry, and swaps it in: msodd's SIGHUP. A
// changed MSoD set applies to the existing history at once, as §5.2's
// restart does; a policy that fails to load or verify leaves the
// previous one serving.
func (s *Shard) Reload() error {
	if s.follower != nil {
		return errors.New("a replica takes a new policy only by restarting")
	}
	pol, err := s.loadPolicy()
	if err != nil {
		return err
	}
	id, err := s.install(pol)
	if err != nil {
		return err
	}
	infof(s.logger, "policy %q reloaded", id)
	return nil
}

// ServeHTTP serves the shard's endpoints.
func (s *Shard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.replica != nil {
		s.replica.ServeHTTP(w, r)
		return
	}
	s.cur.Load().ServeHTTP(w, r)
}

// Serve serves the shard on ln until ctx ends (see the package's
// Serve). A replica follows its owner while it serves, and stops
// serving when the follower fails for good (the owner runs another
// policy): answering from alien history would be wrong.
func (s *Shard) Serve(ctx context.Context, ln net.Listener) error {
	if s.follower == nil {
		return Serve(ctx, ln, s, s.logger)
	}
	ctx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.follower.Run(ctx); err != nil && ctx.Err() == nil {
			s.logger.Error(fmt.Sprintf("replica follower stopped: %v", err))
			stop()
		}
	}()
	err := Serve(ctx, ln, s, s.logger)
	stop()
	<-done
	return err
}

// Store is the shard's retained ADI (nil for a replica).
func (s *Shard) Store() adi.Recorder { return s.store }

// Broker is the shard's decision event stream, the one a replica of it
// tails (nil for a replica).
func (s *Shard) Broker() *inspect.Broker { return s.broker }

// Close stops the sentinel, closes the trail, and compacts and closes
// the durable retained ADI, so the next start reads its snapshot alone.
// A second Close does nothing.
func (s *Shard) Close() error {
	var err error
	for i := len(s.closers) - 1; i >= 0; i-- {
		err = errors.Join(err, s.closers[i]())
	}
	s.closers = nil
	return err
}
