package audit

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"msod/internal/fsx"
	"msod/internal/obsv"
)

// Writer appends decision events to HMAC-chained trail segments in a
// directory. Segments are named trail-NNNNNN.log and rotated every
// segmentSize entries (or on Rotate). A Writer reopened over an existing
// directory continues the sequence and the MAC chain of the newest
// segment, so the chain is unbroken across PDP restarts.
//
// Writer is safe for concurrent use.
type Writer struct {
	mu      sync.Mutex
	dir     string
	segSize int
	fs      fsx.FS

	f       fsx.File
	seq     uint64 // last sequence number written
	lastMAC []byte
	inSeg   int // entries in the current segment
	segIdx  int // index of the current segment

	// Owned scratch, used under mu: the keyed chain hash, the MAC being
	// computed (lastMAC only advances once the entry is written) and the
	// line being assembled, handed to the segment file in one Write. An
	// append allocates the event's JSON and nothing else of its own.
	chain hash.Hash
	sum   [sha256.Size]byte
	line  []byte
}

// DefaultSegmentSize is the rotation threshold used when NewWriter is
// given a non-positive segment size.
const DefaultSegmentSize = 4096

// NewWriter opens (or creates) the trail directory and positions the
// writer after the last existing entry.
func NewWriter(dir string, key []byte, segmentSize int) (*Writer, error) {
	return NewWriterFS(dir, key, segmentSize, fsx.OS)
}

// NewWriterFS is NewWriter over an injected filesystem: the write path
// (segment opens, appends, the torn-tail truncation at resume) goes
// through fs so fault tests can fail or tear it, while verification
// reads stay on the real filesystem they share with the Reader.
func NewWriterFS(dir string, key []byte, segmentSize int, fs fsx.FS) (*Writer, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("audit: empty trail key")
	}
	if segmentSize <= 0 {
		segmentSize = DefaultSegmentSize
	}
	if err := fs.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("audit: create trail dir: %w", err)
	}
	w := &Writer{dir: dir, segSize: segmentSize, fs: fs, chain: newChain(key)}
	w.lastMAC = genesisMAC(w.chain)

	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		// Resume: verify the newest segment to find the chain head. The
		// chain seed of segment k is the last MAC of segment k-1, so full
		// resumption verifies from genesis; we verify all segments to
		// guarantee a consistent restart (the shard_durable workload's
		// audit.verify_ms measures the cost).
		r := &Reader{dir: dir, key: key}
		events, tail, torn, err := r.verifyAllDetail()
		if err != nil {
			return nil, err
		}
		if torn != nil {
			// A crash tore the final entry mid-write. The chain up to the
			// last complete entry verified, so drop the partial bytes and
			// resume from there (the paper's §5.2 reconstruction point).
			path := filepath.Join(dir, torn.seg)
			if err := fs.Truncate(path, torn.off); err != nil {
				return nil, fmt.Errorf("audit: discard torn entry in %s: %w", torn.seg, err)
			}
		}
		copy(w.lastMAC, tail)
		if n := len(events); n > 0 {
			w.seq = events[n-1].Seq
		}
		w.segIdx = segmentIndex(segs[len(segs)-1])
		n, err := countLines(filepath.Join(dir, segs[len(segs)-1]))
		if err != nil {
			return nil, err
		}
		w.inSeg = n
	}
	return w, nil
}

// Append logs one event, assigning it the next sequence number (the
// caller's Seq field is overwritten). The entry is written to the OS
// before Append returns.
func (w *Writer) Append(ev Event) (uint64, error) {
	return w.append(context.Background(), ev)
}

// AppendCtx is Append carrying a context: when the context holds an
// obsv.Trace and this append crosses the segment boundary, the
// rotation (close, fsync, reopen) is recorded as a SpanAuditRotate
// span nested inside the pipeline's audit span — rotation is the rare
// slow case of an otherwise cheap append, and a retained trace should
// say so. Untraced contexts pay a single nil check.
func (w *Writer) AppendCtx(ctx context.Context, ev Event) (uint64, error) {
	return w.append(ctx, ev)
}

func (w *Writer) append(ctx context.Context, ev Event) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ensureSegmentLocked(); err != nil {
		return 0, err
	}
	w.seq++
	ev.Seq = w.seq
	// The one marshal of an append. By pointer: encoding/json then
	// calls Time.MarshalJSON on the field in place instead of boxing a
	// copy of it.
	payload, err := json.Marshal(&ev)
	if err != nil {
		return 0, fmt.Errorf("audit: marshal event: %w", err)
	}
	mac := chainMAC(w.chain, w.lastMAC, payload, w.sum[:])
	w.line = appendEntry(w.line[:0], payload, mac)
	if _, err := w.f.Write(w.line); err != nil {
		return 0, fmt.Errorf("audit: write entry: %w", err)
	}
	copy(w.lastMAC, mac)
	w.inSeg++
	if w.inSeg >= w.segSize {
		endRotate := obsv.StartSpan(ctx, obsv.SpanAuditRotate)
		err := w.rotateLocked()
		endRotate.End()
		if err != nil {
			return 0, err
		}
	}
	return ev.Seq, nil
}

// Rotate closes the current segment so the next Append opens a new one.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotateLocked()
}

// Close syncs and closes the current segment.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closeSegmentLocked()
}

// Seq returns the last sequence number written.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

func (w *Writer) ensureSegmentLocked() error {
	if w.f != nil {
		return nil
	}
	// Reopen a resumed, partially filled segment; otherwise start fresh.
	if w.segIdx == 0 || w.inSeg == 0 || w.inSeg >= w.segSize {
		w.segIdx++
		w.inSeg = 0
	}
	name := segmentName(w.segIdx)
	f, err := w.fs.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("audit: open segment %s: %w", name, err)
	}
	w.f = f
	return nil
}

func (w *Writer) rotateLocked() error {
	if err := w.closeSegmentLocked(); err != nil {
		return err
	}
	w.inSeg = 0
	return nil
}

func (w *Writer) closeSegmentLocked() error {
	if w.f == nil {
		return nil
	}
	// Sealing is a durability point: once the writer moves on to the
	// next segment, this one is never appended to again, and a power
	// loss that tore its un-fsynced tail would read as tampering (an
	// unrepairable chain break) instead of a truncated live segment.
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("audit: sync segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("audit: close segment: %w", err)
	}
	w.f = nil
	return nil
}

// segmentName formats the segment file name for a 1-based index.
func segmentName(idx int) string { return fmt.Sprintf("trail-%06d.log", idx) }

// segmentIndex parses a segment file name back to its index (0 if the
// name is not a segment).
func segmentIndex(name string) int {
	var idx int
	if _, err := fmt.Sscanf(name, "trail-%06d.log", &idx); err != nil {
		return 0
	}
	return idx
}

// Segments lists the trail segment file names in a directory, oldest
// first.
func Segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("audit: list trail dir: %w", err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "trail-") && strings.HasSuffix(e.Name(), ".log") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("audit: open segment: %w", err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			n++
		}
	}
	return n, sc.Err()
}
