package audit

import (
	"context"
	"testing"

	"msod/internal/fault"
	"msod/internal/fsx"
)

func TestRotateAndSeq(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testKey, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 0 {
		t.Errorf("initial Seq = %d", w.Seq())
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(ev("u", "R", "op", EffectGrant, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Seq() != 3 {
		t.Errorf("Seq = %d", w.Seq())
	}
	// Explicit rotation: the next append lands in a new segment.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(ev("u", "R", "op", EffectDeny, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments after Rotate = %v", segs)
	}
	// The chain must still verify across the explicit rotation.
	r, _ := NewReader(dir, testKey)
	if n, err := r.Verify(); err != nil || n != 4 {
		t.Fatalf("verify = %d, %v", n, err)
	}
}

func TestRotateIdempotentWhenClosed(t *testing.T) {
	w, err := NewWriter(t.TempDir(), testKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rotate before any append: no segment open, nothing to do.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(ev("u", "R", "op", EffectGrant, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close twice is fine.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentNameParsing(t *testing.T) {
	if got := segmentIndex(segmentName(42)); got != 42 {
		t.Errorf("round trip = %d", got)
	}
	if got := segmentIndex("not-a-segment"); got != 0 {
		t.Errorf("bogus name = %d", got)
	}
}

// TestAppendSyncedSyncsAndSticks: AppendSynced syncs the segment before
// it returns. After a failed Sync it refuses before it writes, although
// a later Sync would report success over the lost pages; Append goes on
// writing.
func TestAppendSyncedSyncsAndSticks(t *testing.T) {
	ffs := fault.NewFS(fsx.OS, 1)
	w, err := NewWriterFS(t.TempDir(), testKey, 100, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.AppendSynced(context.Background(), ev("u", "R", "op", EffectGrant, 1)); err != nil {
		t.Fatal(err)
	}
	if n := ffs.Ops(); n != 2 {
		t.Fatalf("a synced append took %d operations, want its write and a sync", n)
	}
	ffs.InjectAt(ffs.Ops()+2, fault.SyncFail)
	if _, err := w.AppendSynced(context.Background(), ev("u", "R", "op", EffectGrant, 1)); err == nil {
		t.Fatal("an append whose sync failed succeeded")
	}
	before := ffs.Ops()
	if _, err := w.AppendSynced(context.Background(), ev("u", "R", "op", EffectGrant, 1)); err == nil {
		t.Fatal("a synced append after a failed sync succeeded")
	}
	if n := ffs.Ops() - before; n != 0 {
		t.Fatalf("the refused append took %d operations, want none", n)
	}
	if _, err := w.Append(ev("u", "R", "op", EffectDeny, 1)); err != nil {
		t.Fatalf("an unsynced append after a failed sync: %v", err)
	}
}

// TestFailedWriteLeavesNoGap: an entry whose write fails with nothing
// written takes no sequence number, so the next one follows the last
// entry on disk and the trail still verifies (and a writer can resume
// it at the next start).
func TestFailedWriteLeavesNoGap(t *testing.T) {
	dir := t.TempDir()
	ffs := fault.NewFS(fsx.OS, 1)
	w, err := NewWriterFS(dir, testKey, 100, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(ev("u", "R", "op", EffectGrant, 1)); err != nil {
		t.Fatal(err)
	}
	ffs.InjectAt(ffs.Ops()+1, fault.EIO)
	if _, err := w.Append(ev("u", "R", "op", EffectGrant, 1)); err == nil {
		t.Fatal("an append whose write failed succeeded")
	}
	if seq, err := w.Append(ev("u", "R", "op", EffectGrant, 1)); err != nil || seq != 2 {
		t.Fatalf("the append after the failed one = seq %d, %v; want seq 2", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(dir, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Verify(); err != nil || n != 2 {
		t.Fatalf("Verify = %d, %v; want the 2 written entries", n, err)
	}
}
