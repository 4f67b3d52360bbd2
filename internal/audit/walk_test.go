package audit

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// longEvent is a denied decision whose target is 300,000 '<'
// characters: each is written as the six-byte escape <, so its
// trail line is about 1.8 MB, past any line-scanner's default buffer.
func longEvent() Event {
	e := ev("mallory", "Teller", "op", EffectDeny, 0)
	e.Target = strings.Repeat("<", 300_000)
	return e
}

// TestWriterResumesOverLongEntry: a writer reopened over a trail
// holding an entry longer than 1 MiB resumes after it, and the trail
// it extends verifies both entries.
func TestWriterResumesOverLongEntry(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(longEvent()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = NewWriter(dir, testKey, 0); err != nil {
		t.Fatalf("resume over the long entry: %v", err)
	}
	if seq, err := w.Append(ev("alice", "Teller", "op", EffectGrant, 1)); err != nil || seq != 2 {
		t.Fatalf("append after resume: seq %d, %v; want 2", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(dir, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Verify(); err != nil || n != 2 {
		t.Fatalf("Verify = %d, %v; want 2", n, err)
	}
}

// TestSinceSkipsLongEntrySegment: Since(t, 1) over a trail whose older
// segment holds an entry longer than 1 MiB returns the newest
// segment's events.
func TestSinceSkipsLongEntrySegment(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Event{longEvent(), ev("alice", "Teller", "op", EffectGrant, 1)} {
		if _, err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(dir, testKey)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Since(time.Time{}, 1)
	if err != nil || len(got) != 1 || got[0].User != "alice" || got[0].Seq != 2 {
		t.Fatalf("Since(t, 1) = %+v, %v; want alice's entry, seq 2", got, err)
	}
}

// trailSegments writes n events into segments of segSize entries and
// returns each segment's bytes, oldest first.
func trailSegments(t testing.TB, n, segSize int) [][]byte {
	dir := t.TempDir()
	w, err := NewWriter(dir, testKey, segSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.Append(ev(fmt.Sprintf("u%d", i), "Teller", "op", EffectGrant, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(segs))
	for i, seg := range segs {
		if out[i], err = os.ReadFile(filepath.Join(dir, seg)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// growTrail writes segs into dir as a writer would, segment by
// segment, in chunks whose sizes next picks (the rest of the segment
// when it returns 0), and calls step after each chunk. A chunk may end
// inside a line: the walk sees a torn final line that a later chunk
// completes. step's error stops the growth.
func growTrail(t testing.TB, dir string, segs [][]byte, next func(rest int) int, step func() error) error {
	for i, data := range segs {
		f, err := os.OpenFile(filepath.Join(dir, segmentName(i+1)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		for first := true; first || len(data) > 0; first = false {
			k := next(len(data))
			if k <= 0 || k > len(data) {
				k = len(data)
			}
			if _, err := f.Write(data[:k]); err != nil {
				t.Fatal(err)
			}
			data = data[k:]
			if err := step(); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return nil
}

// TestStepwiseWalkMatchesVerify: a walk advanced in random increments
// while the trail grows — over whitespace-only lines and over torn
// final lines that later appends complete — ends at the sequence number
// and the total count of one from-genesis Verify.
func TestStepwiseWalkMatchesVerify(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		segs := trailSegments(t, 1+r.Intn(20), 1+r.Intn(5))
		// Whitespace-only lines between entries, and unterminated
		// whitespace at the end of a segment.
		for i, data := range segs {
			var out []byte
			for _, line := range bytes.SplitAfter(data, []byte("\n")) {
				if r.Intn(3) == 0 {
					out = append(out, []string{"\n", "  \n", "\t \r\n"}[r.Intn(3)]...)
				}
				out = append(out, line...)
			}
			if r.Intn(4) == 0 {
				out = append(out, " \t"...)
			}
			segs[i] = out
		}
		dir := t.TempDir()
		v, err := NewIncrementalVerifier(dir, testKey)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		err = growTrail(t, dir, segs, func(rest int) int { return 1 + r.Intn(rest+1) }, func() error {
			if r.Intn(3) == 0 {
				return nil
			}
			n, err := v.Advance()
			total += n
			return err
		})
		if err == nil {
			var n int
			n, err = v.Advance()
			total += n
		}
		if err != nil {
			t.Fatalf("seed %d: Advance: %v", seed, err)
		}
		rd, err := NewReader(dir, testKey)
		if err != nil {
			t.Fatal(err)
		}
		n, err := rd.Verify()
		if err != nil || total != n || v.VerifiedSeq() != uint64(n) || v.torn.seg != "" {
			t.Fatalf("seed %d: stepwise %d entries to seq %d (torn %+v), Verify %d, %v",
				seed, total, v.VerifiedSeq(), v.torn, n, err)
		}
	}
}

// TestAdvanceResumesAfterReadError: a segment past the checkpoint that
// cannot be read fails the Advance with an error that is not tampering,
// after the entries before it moved the checkpoint; once the segment
// is back, the next Advance resumes from the last verified entry.
func TestAdvanceResumesAfterReadError(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testKey, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := w.Append(ev("u", "Teller", "op", EffectGrant, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(3)
	v, err := NewIncrementalVerifier(dir, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := v.Advance(); err != nil || n != 3 {
		t.Fatalf("first Advance = %d, %v; want 3", n, err)
	}
	appendN(3) // the fourth fills segment 2, the rest go to segment 3
	// The segment swapped for a directory: a symbolic link to one, which
	// the listing keeps and the read fails on (permission bits would not
	// stop a privileged test process).
	seg3 := filepath.Join(dir, segmentName(3))
	if err := os.Rename(seg3, seg3+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(t.TempDir(), seg3); err != nil {
		t.Fatal(err)
	}
	n, err := v.Advance()
	if err == nil || errors.Is(err, ErrTampered) || errors.Is(err, ErrBadSequence) || errors.Is(err, ErrTruncated) {
		t.Fatalf("Advance over an unreadable segment = %v, want an I/O error", err)
	}
	if n != 1 || v.VerifiedSeq() != 4 {
		t.Fatalf("Advance over an unreadable segment verified %d to seq %d; want 1 to seq 4", n, v.VerifiedSeq())
	}
	if err := os.Remove(seg3); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(seg3+".away", seg3); err != nil {
		t.Fatal(err)
	}
	if n, err := v.Advance(); err != nil || n != 2 || v.VerifiedSeq() != 6 {
		t.Fatalf("Advance after the segment is back = %d to seq %d, %v; want 2 to seq 6", n, v.VerifiedSeq(), err)
	}
}

// walkClass is the class of a walk's outcome: the error sentinel it
// wraps, ErrTruncated for a clean walk that ended at a torn final line,
// or nil.
func walkClass(t *testing.T, err error, torn bool) error {
	for _, c := range []error{ErrTampered, ErrBadSequence, ErrTruncated} {
		if errors.Is(err, c) {
			return c
		}
	}
	if err != nil {
		t.Fatalf("walk failed with no class: %v", err)
	}
	if torn {
		return ErrTruncated
	}
	return nil
}

// FuzzTrailWalk: over a valid trail with byte edits applied (each edit
// four bytes: what and in which segment, where, which byte), a walk
// advanced while the trail grows in the chunks splits names and one
// from-genesis Verify agree on the count and on the error class.
func FuzzTrailWalk(f *testing.F) {
	base := trailSegments(f, 7, 3)
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 40, 'x'}, []byte{10, 200, 3})  // a byte of the first entry
	f.Add([]byte{2, 0, 0, 0}, []byte{0})              // a deleted byte
	f.Add([]byte{1, 0, 90, '\n'}, []byte{1, 2, 3, 4}) // an inserted newline
	f.Add([]byte{5, 1, 0, ' '}, []byte{255, 255})     // an edit in segment 2
	for _, seg := range []int{0, 1, 2} {
		// The last byte of each segment, its newline, gone.
		f.Add([]byte{byte(3*seg + 2), byte((len(base[seg]) - 1) >> 8), byte(len(base[seg]) - 1), 0}, []byte{7})
	}
	f.Fuzz(func(t *testing.T, edits, splits []byte) {
		segs := make([][]byte, len(base))
		for i := range base {
			segs[i] = bytes.Clone(base[i])
		}
		for ; len(edits) >= 4; edits = edits[4:] {
			seg := int(edits[0]/3) % len(segs)
			data := segs[seg]
			pos := (int(edits[1])<<8 | int(edits[2])) % (len(data) + 1)
			switch edits[0] % 3 {
			case 0:
				if pos < len(data) {
					data[pos] = edits[3]
				}
			case 1:
				data = append(data[:pos], append([]byte{edits[3]}, data[pos:]...)...)
			case 2:
				if pos < len(data) {
					data = append(data[:pos], data[pos+1:]...)
				}
			}
			segs[seg] = data
		}
		dir := t.TempDir()
		v, err := NewIncrementalVerifier(dir, testKey)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		advance := func() error {
			n, err := v.Advance()
			total += n
			return err
		}
		err = growTrail(t, dir, segs, func(int) int {
			if len(splits) == 0 {
				return 0
			}
			k := int(splits[0])
			splits = splits[1:]
			return k
		}, advance)
		if err == nil {
			err = advance()
		}
		stepwise := walkClass(t, err, v.torn.seg != "")
		rd, err := NewReader(dir, testKey)
		if err != nil {
			t.Fatal(err)
		}
		n, err := rd.Verify()
		if whole := walkClass(t, err, false); n != total || whole != stepwise {
			t.Fatalf("stepwise walk: %d entries, %v; Verify: %d entries, %v", total, stepwise, n, err)
		}
	})
}

// TestWriterResumesAfterNewestSegment: a writer resumed over a trail
// whose newest segment holds no complete entry (a crash tore its first
// one) appends after that segment, never to the older one that holds
// the last entry: a walk reads a segment with a newer one beside it as
// sealed, and an append in flight there would read as tampering.
func TestWriterResumesAfterNewestSegment(t *testing.T) {
	dir := t.TempDir()
	writeTrail(t, dir, 2, 4)
	sealed := filepath.Join(dir, segmentName(1))
	before, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), []byte(`{"event":{"seq":3`), 0o600); err != nil {
		t.Fatal(err)
	}
	writeTrail(t, dir, 1, 4)
	if after, err := os.ReadFile(sealed); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the resumed writer appended to %s (%v)", segmentName(1), err)
	}
	r, err := NewReader(dir, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Verify(); err != nil || n != 3 {
		t.Fatalf("Verify = %d, %v; want 3", n, err)
	}
}
