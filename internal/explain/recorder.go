package explain

import "msod/internal/ring"

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity.
const DefaultCapacity = 1024

// keyed is the pooled ring of records under a Recorder: Begin, Discard,
// Get, Len, Capacity and Evicted are its methods (see ring.Keyed).
type keyed = ring.Keyed[Record]

// Recorder retains the most recent decision records in a fixed ring
// keyed by requestID, handing out pooled records for the hot path:
// Begin takes a record from the pool, the decision pipeline fills it,
// Commit files it in the ring, and the record a commit evicts returns
// to the pool for reuse. Recorder is safe for concurrent use; a
// record handed out by Begin must not be shared across goroutines
// until committed.
type Recorder struct{ *keyed }

// NewRecorder returns a recorder retaining up to capacity records.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring.NewKeyed(capacity,
		func(r *Record) string { return r.RequestID }, (*Record).reset, (*Record).clone, nil)}
}

// Commit finalizes the record (deriving its governing constraint) and
// files it in the ring under its RequestID. The caller must not touch
// the record afterwards: once filed it may be served, evicted and
// reused at any time. Committing a duplicate RequestID retains both
// ring slots but the newer record wins lookups.
func (rc *Recorder) Commit(rec *Record) {
	if rec == nil {
		return
	}
	rec.finalize()
	rc.keyed.Commit(rec)
}
