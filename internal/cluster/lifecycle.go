package cluster

import "fmt"

// ShardState is a shard's position in the elastic-membership
// lifecycle. The ring only ever contains shards that are authoritative
// for their key ranges — active and draining members — so the
// lifecycle, not the ring, is where an arriving or departing shard
// waits while its users' history is still in motion:
//
//		joining ──▶ syncing ──▶ active ──▶ draining ──▶ gone
//		   │           │                       │
//		   └── (failed handoff: stays joining) └── (failed handoff: back to active)
//
//	  - joining: admitted to the topology (probed healthy, same policy),
//	    owns nothing, receives nothing. A failed join handoff returns
//	    here; the join can be retried or the shard removed.
//	  - syncing: a handoff is streaming retained-ADI subtrees into the
//	    shard. Still owns nothing; decisions for the keys the next ring
//	    gives it refuse fail-closed at the gateway.
//	  - active: in the ring, authoritative for its key ranges.
//	  - draining: still in the ring and still authoritative — a draining
//	    shard finishes its in-flight decisions — but its users are in
//	    transit to their next owners and new work for them refuses
//	    fail-closed until cutover.
//	  - gone: drained out of the ring; holds no authority and may be
//	    removed from the topology (and shut down) at any time.
type ShardState int

const (
	// ShardActive is the steady state: in the ring, serving its users.
	ShardActive ShardState = iota
	// ShardJoining is an admitted shard that owns nothing yet.
	ShardJoining
	// ShardSyncing is a joining shard receiving handoff streams.
	ShardSyncing
	// ShardDraining is a leaving shard streaming its users away; it
	// stays authoritative until cutover.
	ShardDraining
	// ShardGone is a drained shard: out of the ring, removable.
	ShardGone
)

// String renders the lifecycle state.
func (s ShardState) String() string {
	switch s {
	case ShardActive:
		return "active"
	case ShardJoining:
		return "joining"
	case ShardSyncing:
		return "syncing"
	case ShardDraining:
		return "draining"
	case ShardGone:
		return "gone"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// GaugeValue is the state's stable numeric encoding for the
// msodgw_ring_shard_state metric (0 active, 1 joining, 2 syncing,
// 3 draining, 4 gone).
func (s ShardState) GaugeValue() int { return int(s) }

// ParseShardState parses the String form back into a state; the
// gateway's persisted topology file stores states by name so the file
// stays human-readable and diff-able.
func ParseShardState(v string) (ShardState, error) {
	switch v {
	case "active":
		return ShardActive, nil
	case "joining":
		return ShardJoining, nil
	case "syncing":
		return ShardSyncing, nil
	case "draining":
		return ShardDraining, nil
	case "gone":
		return ShardGone, nil
	}
	return 0, fmt.Errorf("cluster: unknown shard state %q", v)
}

// Authoritative reports whether a shard in this state owns ring ranges
// (and therefore belongs in the ring and receives fan-outs).
func (s ShardState) Authoritative() bool {
	return s == ShardActive || s == ShardDraining
}

// Removable reports whether the shard may be removed from the topology
// without a handoff: it owns nothing, so no history is lost. Syncing is
// deliberately excluded — removal mid-stream is the handoff
// coordinator's job to unwind, not the admin endpoint's.
func (s ShardState) Removable() bool {
	return s == ShardJoining || s == ShardGone
}
