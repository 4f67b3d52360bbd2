package node

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"time"

	"msod/internal/cluster"
)

// GatewayConfig is msodgw's configuration: one field per flag, named
// in its comment. The zero value of a field is the flag's default
// unless its comment says otherwise.
type GatewayConfig struct {
	Addr             string              // -addr (the daemon listens; node does not)
	Shards           []cluster.Shard     // -shards: the topology of a first boot
	Replicas         map[string][]string // -replicas: advisory replica URLs by shard ID
	Timeout          time.Duration       // -timeout
	Retries          int                 // -retries
	RetryBackoff     time.Duration       // -retry-backoff
	Probe            time.Duration       // -probe (required: > 0)
	FailAfter        int                 // -fail-after
	BreakerAfter     int                 // -breaker-after
	BreakerCooldown  time.Duration       // -breaker-cooldown
	SlowLog          time.Duration       // -slowlog (0 disables)
	MaxInflight      int                 // -max-inflight (0: unbounded)
	ShedRetryAfter   time.Duration       // -shed-retry-after
	StateFile        string              // -state-file
	HandoffTimeout   time.Duration       // -handoff-timeout
	Pprof            string              // -pprof
	PprofAllowRemote bool                // -pprof-allow-remote
}

// Validate refuses a gateway with no probe interval, no topology to
// boot from, or a state file that exists but cannot be read.
func (c GatewayConfig) Validate() error {
	_, _, err := c.topology()
	return err
}

// topology checks Probe and picks the boot topology: the state file,
// when it exists, wins over Shards — after a membership change it is what
// matches where the retained history actually lives, and a stale
// -shards flag could route moved users to a released donor. A missing
// state file falls back to Shards (first boot); a corrupt one is an
// error, never silently ignored.
func (c GatewayConfig) topology() ([]cluster.Shard, map[string]cluster.ShardState, error) {
	if c.Probe <= 0 {
		return nil, nil, errors.New("-probe must be positive (a Down shard is re-admitted only by a probe)")
	}
	if c.StateFile != "" {
		persisted, err := cluster.LoadTopology(c.StateFile)
		switch {
		case err == nil:
			shards := make([]cluster.Shard, 0, len(persisted))
			states := make(map[string]cluster.ShardState, len(persisted))
			for _, p := range persisted {
				state, err := cluster.ParseShardState(p.State)
				if err != nil {
					return nil, nil, fmt.Errorf("state file %s: %w", c.StateFile, err)
				}
				shards = append(shards, cluster.Shard{ID: p.ID, BaseURL: p.URL})
				states[p.ID] = state
			}
			return shards, states, nil
		case !errors.Is(err, fs.ErrNotExist):
			return nil, nil, err
		}
	}
	if len(c.Shards) == 0 {
		return nil, nil, errors.New("-shards is required")
	}
	return c.Shards, nil, nil
}

// NewGateway builds the gateway cfg describes, runs one probe round so
// its first requests see real shard state, and probes every Probe until
// Close. The ring always has cluster.DefaultVirtualNodes per shard:
// the state file does not record the count and shards never see it, so
// a gateway restarted with another count would route users to shards
// that hold none of their history.
func NewGateway(cfg GatewayConfig, logger *slog.Logger) (*cluster.Gateway, error) {
	shards, states, err := cfg.topology()
	if err != nil {
		return nil, err
	}
	if states != nil {
		infof(logger, "topology restored from state file %s (%d shard(s)); -shards ignored", cfg.StateFile, len(shards))
	}
	// The logger is always wired in so refusals (fail-closed 503s,
	// misrouted 502s) surface as warnings; per-decision lines are gated
	// by SlowLog, with 0 pushing the threshold out of reach.
	slow := cfg.SlowLog
	if slow <= 0 {
		slow = math.MaxInt64
	}
	gw, err := cluster.New(cluster.Config{
		Shards:          shards,
		States:          states,
		Replicas:        cfg.Replicas,
		Timeout:         cfg.Timeout,
		Retries:         cfg.Retries,
		RetryBackoff:    cfg.RetryBackoff,
		FailAfter:       cfg.FailAfter,
		BreakerAfter:    cfg.BreakerAfter,
		BreakerCooldown: cfg.BreakerCooldown,
		Logger:          logger,
		SlowLog:         slow,
		MaxInflight:     cfg.MaxInflight,
		ShedRetryAfter:  cfg.ShedRetryAfter,
		StatePath:       cfg.StateFile,
		HandoffTimeout:  cfg.HandoffTimeout,
	})
	if err != nil {
		return nil, err
	}
	gw.Checker().CheckNow()
	for id, st := range gw.Checker().Statuses() {
		infof(logger, "shard %s %s (policy %q)", id, st.State, st.PolicyID)
	}
	gw.Checker().Start(cfg.Probe)
	return gw, nil
}
