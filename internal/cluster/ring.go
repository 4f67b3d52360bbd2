// Package cluster shards a PDP deployment by user. MSoD state — the
// retained ADI and the MMER/MMEP history the §4.2 algorithm consults —
// is keyed per user, so partitioning users across independent PDP
// shards preserves the single-PDP decision semantics exactly: every
// decision for user U sees all of U's history, because all of it lives
// on U's shard. The package provides the three pieces a sharded
// deployment needs: a consistent-hash ring mapping stable user IDs to
// shards (Ring), health tracking with fail-closed semantics (Checker),
// and an HTTP gateway fronting the shard set (Gateway).
//
// The one rule everything here defends: a decision for user U must
// never be served by two shards concurrently. A split retained ADI
// under-counts history and grants what MSoD must deny, so the gateway
// never re-routes — a slow or dead shard yields an explicit 503 and
// the business process waits, it does not silently proceed. Because
// the routing key is extracted from the unvalidated request while the
// shard's CVS resolves the canonical subject itself, the gateway also
// verifies every answer's resolved subject against the ring and
// withholds answers evaluated by a shard that does not own that user;
// and decisions carry an idempotency RequestID so same-shard retries
// can never commit twice.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the ring's default number of virtual nodes
// per shard; enough to keep the per-shard key share within a few
// percent of uniform for small clusters.
const DefaultVirtualNodes = 64

// point is one virtual node on the ring.
type point struct {
	hash  uint64
	shard string
}

// Ring is a consistent-hash ring with virtual nodes. Membership
// changes rehash deterministically: the ring is rebuilt from the
// sorted member set, so two rings holding the same members route
// identically regardless of the order shards were added or removed,
// and a membership change only moves the keys that must move (those
// owned by the arriving or departing shard).
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	members map[string]bool
	points  []point // sorted by (hash, shard)
	version uint64  // hash of vnodes and the sorted members; see Snapshot
}

// NewRing builds an empty ring with the given number of virtual nodes
// per shard (DefaultVirtualNodes if vnodes < 1).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes, members: make(map[string]bool)}
	r.rebuildLocked()
	return r
}

// hashKey hashes a routing key or virtual-node label onto the ring.
// The FNV-1a sum is passed through a splitmix64 finalizer: FNV's
// avalanche is weak for keys sharing a long prefix (sequential user
// IDs like "user-0042" differ only in their final bytes, which perturb
// mostly the low ~40 bits of the sum), and with ring gaps averaging
// 2^64/points, an unmixed family of such keys falls into ONE gap and
// routes en masse to a single shard — exactly the imbalance a
// consistent-hash ring exists to prevent.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (public-domain constants): full
// avalanche over all 64 bits in three xor-shift/multiply rounds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a shard; adding an existing member is a no-op.
func (r *Ring) Add(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[shard] {
		return
	}
	r.members[shard] = true
	r.rebuildLocked()
}

// Remove deletes a shard; removing a non-member is a no-op.
func (r *Ring) Remove(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[shard] {
		return
	}
	delete(r.members, shard)
	r.rebuildLocked()
}

// rebuildLocked regenerates the point set and the version from the
// member set. Both depend only on the members, never on mutation
// history, and neither is computed anywhere else: Lookup and Version run
// on every routed decision and only read them. The
// member iteration runs over the SORTED member list, and the points go
// into a fresh slice rather than reusing the old backing array: a
// reader that raced an earlier rebuild can never observe a
// half-rewritten point set, and two rings holding the same members
// produce byte-identical point sequences regardless of how many
// Add/Remove cycles each one went through.
func (r *Ring) rebuildLocked() {
	members := r.membersLocked()
	version := fnv.New64a()
	fmt.Fprintf(version, "vnodes=%d", r.vnodes)
	points := make([]point, 0, len(members)*r.vnodes)
	for _, shard := range members {
		version.Write([]byte{0})
		version.Write([]byte(shard))
		for i := 0; i < r.vnodes; i++ {
			points = append(points, point{
				hash:  hashKey(fmt.Sprintf("%s#%d", shard, i)),
				shard: shard,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Hash ties (vanishingly rare) break by shard ID so ownership
		// stays deterministic across rebuilds.
		return points[i].shard < points[j].shard
	})
	r.points = points
	r.version = version.Sum64()
}

// membersLocked returns the member IDs sorted; callers hold r.mu.
func (r *Ring) membersLocked() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Lookup maps a routing key (a stable user ID) to its owning shard.
// The second return is false only when the ring is empty.
func (r *Ring) Lookup(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := hashKey(key)
	// First point clockwise from h, wrapping past the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard, true
}

// Members returns the shard set, sorted. The sort runs under the same
// lock that guards Add/Remove, so the order is deterministic even while
// membership churns — two gateways holding the same member set always
// report the same sequence, whatever their mutation histories were.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.membersLocked()
}

// Snapshot returns the sorted member list and the version hash in one
// atomic read, so the pair is always consistent. The version is a
// stable hash of the member set: two rings route identically if and
// only if they hold the same members and vnode count, and such rings
// always report the same version. It is computed from the sorted member
// list under the membership lock — never from Go's randomized map order
// — so concurrent Add/Remove on one gateway cannot make its version
// diverge from another gateway that converged on the same membership.
func (r *Ring) Snapshot() ([]string, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.membersLocked(), r.version
}

// Clone returns an independent ring with the same vnode count and
// member set. The handoff coordinator plans ownership moves on a clone
// (current membership ± the arriving/leaving shard) without touching
// the live routing ring until cutover.
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := NewRing(r.vnodes)
	for m := range r.members {
		c.members[m] = true
	}
	c.rebuildLocked()
	return c
}

// Size returns the number of member shards.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}
