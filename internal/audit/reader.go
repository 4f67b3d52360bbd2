package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

// Verify checks the full MAC chain across every segment and returns the
// number of entries verified. It fails with ErrTampered on any chain
// break, ErrBadSequence on sequence gaps, and ErrTruncated when the
// newest segment ends in a partial entry (a torn crash write — the
// chain up to it is intact).
func (r *Reader) Verify() (int, error) {
	events, _, torn, err := r.verifyAllDetail()
	if err != nil {
		return 0, err
	}
	if torn != nil {
		return len(events), fmt.Errorf("%w: %s: partial final entry at byte %d (%d complete entries verified)",
			ErrTruncated, torn.seg, torn.off, len(events))
	}
	return len(events), nil
}

// All verifies the full chain and returns every event, oldest first. A
// torn final entry (crash mid-write) is dropped: reconstruction resumes
// from the last complete entry, per §5.2 recovery.
func (r *Reader) All() ([]Event, error) {
	events, _, _, err := r.verifyAllDetail()
	return events, err
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
	// The chain must be verified from genesis regardless of the window.
	events, _, _, err := r.verifyAllDetail()
	if err != nil {
		return nil, err
	}
	if n > 0 && n < len(segs) {
		// Count entries in the excluded older segments to find the cut.
		cut := 0
		for _, seg := range segs[:len(segs)-n] {
			c, err := countLines(filepath.Join(r.dir, seg))
			if err != nil {
				return nil, err
			}
			cut += c
		}
		if cut > len(events) {
			cut = len(events)
		}
		events = events[cut:]
	}
	out := events[:0]
	for _, ev := range events {
		if !ev.Time.Before(t) {
			out = append(out, ev)
		}
	}
	return out, nil
}

// tornTail locates a partial final entry: the newest segment's trailing
// bytes past the last newline, which a crashed writer left behind.
type tornTail struct {
	seg string // segment file name
	off int64  // byte offset where the torn bytes begin
}

// verifyAllDetail walks every segment in order, verifying the chain,
// and returns the complete events, the final MAC (the chain head for a
// resuming Writer), and the location of a torn final entry if the
// newest segment does not end in a newline. Unterminated bytes inside a
// sealed (non-final) segment are tampering — the writer only ever
// leaves a partial line at the very end of the trail.
func (r *Reader) verifyAllDetail() ([]Event, []byte, *tornTail, error) {
	segs, err := Segments(r.dir)
	if err != nil {
		return nil, nil, nil, err
	}
	// One keyed hash per verification pass: a Reader may be shared, a
	// pass is not.
	chain := newChain(r.key)
	prev := genesisMAC(chain)
	var (
		sum     [sha256.Size]byte
		events  []Event
		lastSeq uint64
		torn    *tornTail
	)
	for si, seg := range segs {
		path := filepath.Join(r.dir, seg)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("audit: read segment %s: %w", seg, err)
		}
		final := si == len(segs)-1
		var off int64
		line := 0
		for len(data) > 0 {
			nl := bytes.IndexByte(data, '\n')
			if nl < 0 {
				// Unterminated trailing bytes. Whitespace is ignorable;
				// content is a torn write if this is the newest segment,
				// tampering otherwise.
				if len(bytes.TrimSpace(data)) == 0 {
					break
				}
				if !final {
					return nil, nil, nil, fmt.Errorf("%w: %s: unterminated entry at byte %d inside sealed segment", ErrTampered, seg, off)
				}
				torn = &tornTail{seg: seg, off: off}
				break
			}
			raw := data[:nl]
			data = data[nl+1:]
			lineLen := int64(nl + 1)
			if len(bytes.TrimSpace(raw)) == 0 {
				off += lineLen
				continue
			}
			line++
			var e entry
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, nil, nil, fmt.Errorf("%w: %s line %d: %v", ErrTampered, seg, line, err)
			}
			ev, err := e.decode()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%w: %s line %d: %v", ErrTampered, seg, line, err)
			}
			want := chainMAC(chain, prev, e.Event, sum[:])
			got, err := decodeMAC(e.MAC)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%w: %s line %d: bad mac encoding", ErrTampered, seg, line)
			}
			if !macEqual(want, got) {
				return nil, nil, nil, fmt.Errorf("%w: %s line %d (seq %d)", ErrTampered, seg, line, ev.Seq)
			}
			if ev.Seq != lastSeq+1 {
				return nil, nil, nil, fmt.Errorf("%w: %s line %d: seq %d after %d", ErrBadSequence, seg, line, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			copy(prev, want)
			events = append(events, ev)
			off += lineLen
		}
	}
	return events, prev, torn, nil
}

func macEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}
