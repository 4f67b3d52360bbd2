package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
)

// IncrementalVerifier extends chain verification to a *running* trail:
// it remembers a checkpoint (segment, byte offset, chain MAC, sequence)
// and each Advance verifies only the entries appended since, so a
// sentinel can re-check a busy trail on a short interval without paying
// the full from-genesis scan the paper performs at reconstruction.
//
// The incremental pass guards the append-only contract going forward:
// new entries must extend the existing MAC chain, checkpointed segments
// must not shrink or disappear, and sealed segments must not grow
// unterminated bytes. Byte flips inside the already-verified prefix are
// the startup (from-genesis) verifier's job — once a MAC has been
// checked the chain head commits to it, so any later splice shows up as
// a chain break at the first new entry.
//
// IncrementalVerifier is not safe for concurrent use; the sentinel
// serialises calls.
type IncrementalVerifier struct {
	dir   string
	chain hash.Hash // keyed with the trail key, Reset per entry

	segIdx  int   // segment holding the checkpoint (0 = nothing verified)
	off     int64 // verified byte offset within that segment
	lastMAC []byte
	lastSeq uint64
	sum     [sha256.Size]byte // the MAC under test; lastMAC moves only on a match
}

// NewIncrementalVerifier starts a verifier at the genesis of the trail
// in dir. The directory may be empty or not yet exist; entries are
// picked up as they appear.
func NewIncrementalVerifier(dir string, key []byte) (*IncrementalVerifier, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("audit: empty trail key")
	}
	chain := newChain(key)
	return &IncrementalVerifier{dir: dir, chain: chain, lastMAC: genesisMAC(chain)}, nil
}

// VerifiedSeq returns the sequence number of the last entry the chain
// has been verified through (0 before any entry verified).
func (v *IncrementalVerifier) VerifiedSeq() uint64 { return v.lastSeq }

// Advance verifies every complete entry appended since the previous
// call and moves the checkpoint past them, returning how many new
// entries were verified. An unterminated final line in the newest
// segment is an in-flight write: it is left unconsumed and re-examined
// on the next call. Failures wrap ErrTampered or ErrBadSequence; after
// a failure the verifier's checkpoint is undefined and it should not be
// advanced again.
func (v *IncrementalVerifier) Advance() (int, error) {
	segs, err := Segments(v.dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		if v.segIdx != 0 {
			return 0, fmt.Errorf("%w: checkpointed segment %s disappeared", ErrTampered, segmentName(v.segIdx))
		}
		return 0, nil
	}
	verified := 0
	seenCheckpoint := v.segIdx == 0
	for i, seg := range segs {
		idx := segmentIndex(seg)
		if v.segIdx != 0 && idx < v.segIdx {
			continue
		}
		var startOff int64
		if idx == v.segIdx {
			startOff = v.off
			seenCheckpoint = true
		}
		n, err := v.advanceSegment(seg, idx, startOff, i == len(segs)-1)
		verified += n
		if err != nil {
			return verified, err
		}
	}
	if !seenCheckpoint {
		return verified, fmt.Errorf("%w: checkpointed segment %s disappeared", ErrTampered, segmentName(v.segIdx))
	}
	return verified, nil
}

// advanceSegment verifies the segment's bytes from startOff on and, on
// success, moves the checkpoint to its end (or to the start of an
// in-flight partial line when final).
func (v *IncrementalVerifier) advanceSegment(seg string, idx int, startOff int64, final bool) (int, error) {
	path := filepath.Join(v.dir, seg)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: segment %s disappeared", ErrTampered, seg)
		}
		return 0, fmt.Errorf("audit: open segment %s: %w", seg, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("audit: stat segment %s: %w", seg, err)
	}
	if st.Size() < startOff {
		return 0, fmt.Errorf("%w: segment %s shrank below verified offset %d", ErrTampered, seg, startOff)
	}
	if _, err := f.Seek(startOff, io.SeekStart); err != nil {
		return 0, fmt.Errorf("audit: seek segment %s: %w", seg, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, fmt.Errorf("audit: read segment %s: %w", seg, err)
	}
	off := startOff
	count := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			if len(bytes.TrimSpace(data)) == 0 {
				break
			}
			if final {
				// In-flight append: the writer has not finished this
				// line. Leave the checkpoint before it.
				break
			}
			return count, fmt.Errorf("%w: %s: unterminated entry at byte %d inside sealed segment", ErrTampered, seg, off)
		}
		raw := data[:nl]
		data = data[nl+1:]
		lineLen := int64(nl + 1)
		if len(bytes.TrimSpace(raw)) == 0 {
			off += lineLen
			continue
		}
		var e entry
		if err := json.Unmarshal(raw, &e); err != nil {
			return count, fmt.Errorf("%w: %s at byte %d: %v", ErrTampered, seg, off, err)
		}
		ev, err := e.decode()
		if err != nil {
			return count, fmt.Errorf("%w: %s at byte %d: %v", ErrTampered, seg, off, err)
		}
		want := chainMAC(v.chain, v.lastMAC, e.Event, v.sum[:])
		got, err := decodeMAC(e.MAC)
		if err != nil {
			return count, fmt.Errorf("%w: %s at byte %d: bad mac encoding", ErrTampered, seg, off)
		}
		if !macEqual(want, got) {
			return count, fmt.Errorf("%w: %s at byte %d (seq %d)", ErrTampered, seg, off, ev.Seq)
		}
		if ev.Seq != v.lastSeq+1 {
			return count, fmt.Errorf("%w: %s at byte %d: seq %d after %d", ErrBadSequence, seg, off, ev.Seq, v.lastSeq)
		}
		copy(v.lastMAC, want)
		v.lastSeq = ev.Seq
		off += lineLen
		count++
	}
	v.segIdx = idx
	v.off = off
	return count, nil
}
