package audit

import (
	"fmt"
	"time"
)

// Reader verifies and iterates trail segments.
type Reader struct {
	dir string
	key []byte
}

// NewReader opens a trail directory for verification and replay.
func NewReader(dir string, key []byte) (*Reader, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("audit: empty trail key")
	}
	return &Reader{dir: dir, key: append([]byte(nil), key...)}, nil
}

// walk runs a fresh walk over the trail from genesis, handing each
// verified event and its segment's index to visit (if not nil).
func (r *Reader) walk(visit func(seg int, ev Event)) (*IncrementalVerifier, int, error) {
	v, err := NewIncrementalVerifier(r.dir, r.key)
	if err != nil {
		return nil, 0, err
	}
	v.visit = visit
	n, err := v.Advance()
	return v, n, err
}

// Verify checks the full MAC chain across every segment and returns the
// number of entries verified (before the failure, on one). It fails
// with ErrTampered on any chain break, ErrBadSequence on sequence gaps,
// and ErrTruncated when the newest segment ends in a partial entry (a
// torn crash write — the chain up to it is intact).
func (r *Reader) Verify() (int, error) {
	v, n, err := r.walk(nil)
	if err == nil && v.torn.seg != "" {
		err = fmt.Errorf("%w: %s: partial final entry at byte %d (%d complete entries verified)",
			ErrTruncated, v.torn.seg, v.torn.off, n)
	}
	return n, err
}

// All verifies the full chain and returns every event, oldest first. A
// torn final entry (crash mid-write) is dropped: reconstruction resumes
// from the last complete entry, per §5.2 recovery.
func (r *Reader) All() ([]Event, error) {
	var events []Event
	if _, _, err := r.walk(func(_ int, ev Event) { events = append(events, ev) }); err != nil {
		return nil, err
	}
	return events, nil
}

// Since verifies the full chain and returns the events from the last n
// segments (n <= 0 means all) whose time is not before t — the "last n
// audit trails starting from time t" recovery parameters of §5.2. Like
// All, it tolerates a torn final entry.
func (r *Reader) Since(t time.Time, n int) ([]Event, error) {
	segs, err := Segments(r.dir)
	if err != nil {
		return nil, err
	}
	// The chain is verified from genesis regardless of the window.
	first := 0
	if n > 0 && n < len(segs) {
		first = segmentIndex(segs[len(segs)-n])
	}
	var events []Event
	_, _, err = r.walk(func(seg int, ev Event) {
		if seg >= first && !ev.Time.Before(t) {
			events = append(events, ev)
		}
	})
	if err != nil {
		return nil, err
	}
	return events, nil
}
