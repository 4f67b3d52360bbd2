package pdp

import (
	"fmt"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/core"
	"msod/internal/policy"
)

// RecoveryMode selects how a restarting PDP rebuilds its retained ADI.
type RecoveryMode int

const (
	// RecoverNone starts with an empty retained ADI.
	RecoverNone RecoveryMode = iota
	// RecoverFromTrail replays the audit trail (§5.2: "the PDP reads in
	// its policy, and then processes the last n audit trails starting
	// from time t").
	RecoverFromTrail
)

// RecoveryConfig parameterises start-up recovery.
type RecoveryConfig struct {
	Mode RecoveryMode
	// TrailDir and TrailKey locate the audit trail for RecoverFromTrail.
	TrailDir string
	TrailKey []byte
	// Since and LastSegments are the administrative parameters t and n
	// of §5.2 (zero values mean everything).
	Since        time.Time
	LastSegments int
}

// Recover rebuilds a retained ADI according to the recovery
// configuration and the current policy's MSoD set, returning the
// populated store and replay statistics (zero stats for none).
func Recover(pol *policy.RBACPolicy, rc RecoveryConfig) (*adi.Store, audit.ReplayStats, error) {
	store := adi.NewStore()
	switch rc.Mode {
	case RecoverNone:
		return store, audit.ReplayStats{}, nil

	case RecoverFromTrail:
		reader, err := audit.NewReader(rc.TrailDir, rc.TrailKey)
		if err != nil {
			return nil, audit.ReplayStats{}, fmt.Errorf("pdp: recovery: %w", err)
		}
		events, err := reader.Since(rc.Since, rc.LastSegments)
		if err != nil {
			return nil, audit.ReplayStats{}, fmt.Errorf("pdp: recovery: %w", err)
		}
		var policies []core.Policy
		if pol.MSoD != nil {
			policies, err = core.Compile(pol.MSoD)
			if err != nil {
				return nil, audit.ReplayStats{}, fmt.Errorf("pdp: recovery: %w", err)
			}
		}
		stats, err := audit.Replay(events, policies, store)
		if err != nil {
			return nil, audit.ReplayStats{}, fmt.Errorf("pdp: recovery: %w", err)
		}
		return store, stats, nil

	default:
		return nil, audit.ReplayStats{}, fmt.Errorf("pdp: recovery: unknown mode %d", rc.Mode)
	}
}
