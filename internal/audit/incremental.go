package audit

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
)

// IncrementalVerifier is the trail's one walk over the HMAC chain. Its
// checkpoint (segment, byte offset, chain MAC, sequence number, entries
// verified in that segment) moves past each verified entry and only
// then, so each Advance verifies only what was appended since. The
// Reader runs a fresh walk from genesis, a resuming Writer continues the
// chain from a walk's checkpoint, and the sentinel advances one walk on
// a short interval without paying the full from-genesis scan the paper
// performs at reconstruction.
//
// A walk guards the append-only contract going forward: new entries
// must extend the MAC chain, the checkpointed segment must not shrink or
// disappear, and sealed segments must not end in unterminated bytes.
// Byte flips inside the already-verified prefix are a fresh walk's to
// find — once a MAC has been checked the chain head commits to it, so
// any later splice shows up as a chain break at the first new entry.
//
// IncrementalVerifier is not safe for concurrent use; the sentinel
// serialises calls.
type IncrementalVerifier struct {
	dir   string
	chain hash.Hash // keyed with the trail key, Reset per entry

	segIdx  int   // segment of the last verified entry (0 = none yet)
	off     int64 // byte offset just past it
	inSeg   int   // entries verified in segment segIdx
	lastMAC []byte
	lastSeq uint64
	sum     [sha256.Size]byte // the MAC under test; lastMAC moves only on a match

	// newest is the index of the newest segment the last Advance listed,
	// and torn locates the unterminated bytes at its end (seg "" when
	// there were none): an append in flight, or one a crash tore.
	newest int
	torn   tornTail
	// visit, when set, receives each verified event with the index of its
	// segment.
	visit func(seg int, ev Event)
}

// tornTail is where a partial final entry begins.
type tornTail struct {
	seg string // segment file name
	off int64  // byte offset of the unterminated bytes
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

// Advance verifies every complete entry appended since the checkpoint
// and returns how many it verified. Unterminated bytes at the end of the
// newest segment are an append in flight: they are recorded, not
// consumed, and examined again on the next call. Tampering fails with
// ErrTampered or ErrBadSequence. Any other failure (a segment that
// cannot be read) leaves the checkpoint at the last verified entry, and
// the next Advance resumes from there.
func (v *IncrementalVerifier) Advance() (int, error) {
	v.newest, v.torn = 0, tornTail{}
	segs, err := Segments(v.dir)
	if err != nil {
		return 0, err
	}
	verified := 0
	seen := v.segIdx == 0
	for i, seg := range segs {
		idx := segmentIndex(seg)
		if idx < v.segIdx {
			continue
		}
		seen = seen || idx == v.segIdx
		v.newest = idx
		n, err := v.advanceSegment(seg, idx, i == len(segs)-1)
		verified += n
		if err != nil {
			return verified, err
		}
	}
	if !seen {
		return verified, fmt.Errorf("%w: checkpointed segment %s disappeared", ErrTampered, segmentName(v.segIdx))
	}
	return verified, nil
}

// advanceSegment verifies the entries of segment seg (index idx) past
// the checkpoint. Only the newest (final) segment may end in an append
// in flight; unterminated bytes anywhere else are tampering.
func (v *IncrementalVerifier) advanceSegment(seg string, idx int, final bool) (int, error) {
	var off int64
	if idx == v.segIdx {
		off = v.off
	}
	f, err := os.Open(filepath.Join(v.dir, seg))
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
	if st.Size() < off {
		return 0, fmt.Errorf("%w: segment %s shrank below verified offset %d", ErrTampered, seg, off)
	}
	// Bytes appended after the Stat are left to the next Advance.
	data := make([]byte, st.Size()-off)
	n, err := f.ReadAt(data, off)
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("audit: read segment %s: %w", seg, err)
	}
	data = data[:n]
	count := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			if len(bytes.TrimSpace(data)) == 0 {
				break
			}
			if !final {
				return count, fmt.Errorf("%w: %s: unterminated entry at byte %d inside sealed segment", ErrTampered, seg, off)
			}
			v.torn = tornTail{seg: seg, off: off}
			break
		}
		line, at := data[:nl], off
		data = data[nl+1:]
		off += int64(nl + 1)
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		ev, err := v.verifyEntry(line, seg, at)
		if err != nil {
			return count, err
		}
		copy(v.lastMAC, v.sum[:])
		v.lastSeq = ev.Seq
		if v.segIdx != idx {
			v.segIdx, v.inSeg = idx, 0
		}
		v.off = off
		v.inSeg++
		count++
		if v.visit != nil {
			v.visit(idx, ev)
		}
	}
	return count, nil
}

// verifyEntry checks one line, at byte at of segment seg, against the
// chain head and returns its event; the checkpoint does not move.
func (v *IncrementalVerifier) verifyEntry(line []byte, seg string, at int64) (Event, error) {
	var (
		e  entry
		ev Event
	)
	err := json.Unmarshal(line, &e)
	if err == nil {
		err = json.Unmarshal(e.Event, &ev)
	}
	if err != nil {
		return ev, fmt.Errorf("%w: %s at byte %d: %v", ErrTampered, seg, at, err)
	}
	want := chainMAC(v.chain, v.lastMAC, e.Event, v.sum[:])
	got, err := hex.DecodeString(e.MAC)
	if err != nil {
		return ev, fmt.Errorf("%w: %s at byte %d: bad mac encoding", ErrTampered, seg, at)
	}
	if !hmac.Equal(want, got) {
		return ev, fmt.Errorf("%w: %s at byte %d (seq %d)", ErrTampered, seg, at, ev.Seq)
	}
	if ev.Seq != v.lastSeq+1 {
		return ev, fmt.Errorf("%w: %s at byte %d: seq %d after %d", ErrBadSequence, seg, at, ev.Seq, v.lastSeq)
	}
	return ev, nil
}
