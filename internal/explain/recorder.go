package explain

import "msod/internal/ring"

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity.
const DefaultCapacity = 1024

// keyed is the pooled ring of entries under a Recorder, served as
// Records: Begin, Discard, Get, Len, Capacity and Evicted are its
// methods (see ring.Keyed).
type keyed = ring.Keyed[Entry, Record]

// Recorder retains the most recent explained decisions in a fixed ring
// keyed by requestID, handing out pooled entries for the hot path:
// Begin takes an entry from the pool, the engine hands it the rules it
// consults, Commit files it in the ring with the shard's Decision, and
// the entry a commit evicts returns to the pool for reuse. Get renders
// the Record it serves. Recorder is safe for concurrent use; an entry
// handed out by Begin must not be shared across goroutines until
// committed.
type Recorder struct{ *keyed }

// NewRecorder returns a recorder retaining up to capacity records.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring.NewKeyed(capacity,
		func(e *Entry) string { return e.RequestID }, (*Entry).reset, (*Entry).record, nil)}
}

// Commit files the entry in the ring under d's RequestID, with d as
// its Decision. The caller must not touch the entry afterwards: once
// filed it may be served, evicted and reused at any time. Committing a
// duplicate RequestID retains both ring slots but the newer entry wins
// lookups.
func (rc *Recorder) Commit(e *Entry, d *Decision) {
	e.Decision = *d
	rc.keyed.Commit(e)
}
