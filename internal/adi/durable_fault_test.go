package adi

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"msod/internal/bctx"
	"msod/internal/fault"
	"msod/internal/fsx"
)

// openDurableFS opens a store over a fault filesystem with sync-every-
// write on, so each Append is write-op + sync-op.
func openDurableFS(t *testing.T, dir string, fs fsx.FS) (*DurableStore, error) {
	t.Helper()
	return OpenDurableFS(dir, []byte("durable-secret"), true, fs)
}

// TestDurableENoSpaceMidAppend injects disk-full in the middle of a WAL
// append and checks the two halves of the fail-closed contract: the
// failed mutation is not visible in the acknowledged (in-memory) state,
// and the store reopens cleanly over whatever torn bytes reached the
// disk — with no partial mutation surfacing after recovery.
func TestDurableENoSpaceMidAppend(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		dir := t.TempDir()
		ffs := fault.NewFS(fsx.OS, seed)
		ds, err := openDurableFS(t, dir, ffs)
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		if err := ds.Append(rec("alice", "Teller", "op", "t", "Branch=York, Period=2006")); err != nil {
			t.Fatalf("seed %d: first append: %v", seed, err)
		}
		// Arm disk-full at the next mutating op — the WAL write of the
		// second append.
		ffs.InjectAt(ffs.Ops()+1, fault.ENoSpace)
		err = ds.Append(rec("bob", "Auditor", "op", "t", "Branch=Leeds, Period=2006"))
		if err == nil {
			t.Fatalf("seed %d: append succeeded despite ENOSPC", seed)
		}
		if !errors.Is(err, ErrWriteFailed) {
			t.Fatalf("seed %d: err = %v, want ErrWriteFailed", seed, err)
		}
		if !errors.Is(err, fault.ErrNoSpace) {
			t.Fatalf("seed %d: err = %v, want to carry ErrNoSpace", seed, err)
		}
		// The refused mutation must not be acknowledged in memory.
		if ds.Len() != 1 {
			t.Fatalf("seed %d: len after failed append = %d, want 1", seed, ds.Len())
		}
		ds.Close()

		// Reopen over the real surviving bytes. A torn final record is
		// truncated away; a whole record that happened to land is fine —
		// in both cases the store is consistent and appendable.
		ds2, err := OpenDurable(dir, []byte("durable-secret"), true)
		if err != nil {
			t.Fatalf("seed %d: reopen after ENOSPC: %v", seed, err)
		}
		if n := ds2.Len(); n != 1 && n != 2 {
			t.Fatalf("seed %d: recovered %d records, want 1 or 2", seed, n)
		}
		ok, err := ds2.UserHasRole("alice", bctx.MustParse("Branch=York, Period=2006"), "Teller")
		if err != nil || !ok {
			t.Fatalf("seed %d: acknowledged record lost: ok=%v err=%v", seed, ok, err)
		}
		if err := ds2.Append(rec("carol", "Clerk", "op", "t", "Branch=Hull, Period=2006")); err != nil {
			t.Fatalf("seed %d: append after recovery: %v", seed, err)
		}
		ds2.Close()
	}
}

// TestDurableEIOMidAppendNothingLeaks injects a hard EIO on the WAL
// write: nothing reaches the disk and nothing reaches memory.
func TestDurableEIOMidAppend(t *testing.T) {
	dir := t.TempDir()
	ffs := fault.NewFS(fsx.OS, 4)
	ds, err := openDurableFS(t, dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Append(rec("alice", "Teller", "op", "t", "Branch=York, Period=2006")); err != nil {
		t.Fatal(err)
	}
	ffs.InjectAt(ffs.Ops()+1, fault.EIO)
	err = ds.Append(rec("bob", "Auditor", "op", "t", "Branch=Leeds, Period=2006"))
	if !errors.Is(err, ErrWriteFailed) || !errors.Is(err, fault.ErrEIO) {
		t.Fatalf("err = %v, want ErrWriteFailed wrapping ErrEIO", err)
	}
	if ds.Len() != 1 {
		t.Fatalf("len = %d after refused append", ds.Len())
	}
	ds.Close()
	ds2, err := OpenDurable(dir, []byte("durable-secret"), true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if ds2.Len() != 1 {
		t.Fatalf("recovered %d records, want exactly 1", ds2.Len())
	}
	ds2.Close()
}

// TestDurableFailedFsyncRefusesWrite checks the sync-every-write
// contract: if the fsync fails, the append is refused even though the
// bytes reached the OS.
func TestDurableFailedFsyncRefusesWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := fault.NewFS(fsx.OS, 6)
	ds, err := openDurableFS(t, dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Append(rec("alice", "Teller", "op", "t", "Branch=York, Period=2006")); err != nil {
		t.Fatal(err)
	}
	// Next append: op+1 is the WAL write, op+2 the fsync.
	ffs.InjectAt(ffs.Ops()+2, fault.SyncFail)
	err = ds.Append(rec("bob", "Auditor", "op", "t", "Branch=Leeds, Period=2006"))
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("err = %v, want ErrWriteFailed on failed fsync", err)
	}
	if ds.Len() != 1 {
		t.Fatalf("len = %d after refused append", ds.Len())
	}
	ds.Close()
}

// TestRefusedPurgeStaysRefused: a purge whose WAL Sync fails is
// refused, and stays refused after the store is reopened without Close,
// whether the process died (its written bytes survive) or the power
// failed (only synced bytes survive). Reopened, the store still holds
// the record the purge would have removed.
func TestRefusedPurgeStaysRefused(t *testing.T) {
	for _, powerLoss := range []bool{false, true} {
		dir := t.TempDir()
		ffs := fault.NewFS(fsx.OS, 7)
		ds, err := openDurableFS(t, dir, ffs)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Append(rec("alice", "Teller", "op", "t", "Branch=York, Period=2006")); err != nil {
			t.Fatal(err)
		}
		// The purge: op+1 is its WAL write, op+2 the fsync.
		ffs.InjectAt(ffs.Ops()+2, fault.SyncFail)
		if _, err := ds.PurgeContext(bctx.MustParse("Branch=*, Period=2006")); !errors.Is(err, ErrWriteFailed) {
			t.Fatalf("purge whose Sync failed = %v, want ErrWriteFailed", err)
		}
		if ds.Len() != 1 {
			t.Fatalf("%d records after the refused purge, want 1", ds.Len())
		}
		if powerLoss {
			ffs.CrashNow()
		}
		reopened, err := OpenDurable(dir, []byte("durable-secret"), true)
		if err != nil {
			t.Fatal(err)
		}
		if n := reopened.Len(); n != 1 {
			t.Errorf("power loss %v: reopened with %d records, want 1: the refused purge took effect", powerLoss, n)
		}
		reopened.Close()
	}
}

// TestDurableTornFinalRecordResumed writes a torn final WAL record the
// way a crash would (a prefix of a sealed line, no trailing newline)
// and checks recovery truncates it and the store resumes appending —
// the WAL analogue of the audit trail's ErrTruncated repair.
func TestDurableTornFinalRecordResumed(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDurable(dir, []byte("durable-secret"), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Append(rec("alice", "Teller", "op", "t", "Branch=York, Period=2006")); err != nil {
		t.Fatal(err)
	}
	if err := ds.Append(rec("bob", "Auditor", "op", "t", "Branch=Leeds, Period=2006")); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, durableWALName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(walPath)
	// Tear: append the first half of the first record without a newline.
	half := wal[:len(wal)/4]
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(half); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ds2, err := OpenDurable(dir, []byte("durable-secret"), true)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if ds2.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", ds2.Len())
	}
	// The torn bytes are gone from the disk.
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("wal size %d after repair, want %d", after.Size(), before.Size())
	}
	// And the store resumes normally.
	if err := ds2.Append(rec("carol", "Clerk", "op", "t", "Branch=Hull, Period=2006")); err != nil {
		t.Fatalf("append after torn-tail repair: %v", err)
	}
	ds2.Close()
	ds3, err := OpenDurable(dir, []byte("durable-secret"), true)
	if err != nil {
		t.Fatal(err)
	}
	if ds3.Len() != 3 {
		t.Fatalf("final recovery %d records, want 3", ds3.Len())
	}
	ds3.Close()
}

// TestSecureStoreSaveSurvivesCrashAfterDirSync drives the satellite
// fix: with the temp file fsynced before rename and the directory
// fsynced after, a simulated power loss immediately after Save never
// loses or tears the snapshot.
func TestSecureStoreSaveSurvivesCrash(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "snap.sealed")
		ffs := fault.NewFS(fsx.OS, seed)
		ss, err := NewSecureStoreFS(path, []byte("s3cret"), ffs)
		if err != nil {
			t.Fatal(err)
		}
		recs := []Record{
			rec("alice", "Teller", "op", "t", "Branch=York, Period=2006"),
			rec("bob", "Auditor", "op", "t", "Branch=Leeds, Period=2006"),
		}
		if err := ss.Save(recs); err != nil {
			t.Fatalf("seed %d: save: %v", seed, err)
		}
		ffs.CrashNow()

		// Reopen over the survivors with the real filesystem.
		ss2, err := NewSecureStore(path, []byte("s3cret"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ss2.Load()
		if err != nil {
			t.Fatalf("seed %d: snapshot torn after crash: %v", seed, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("seed %d: %d records after crash, want %d", seed, len(got), len(recs))
		}
	}
}
