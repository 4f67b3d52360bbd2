package adi

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

func openDurable(t *testing.T, dir string) *DurableStore {
	t.Helper()
	ds, err := OpenDurable(dir, []byte("durable-secret"), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func TestDurableBasicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir)
	if err := ds.Append(
		rec("alice", "Teller", "op", "t", "Branch=York, Period=2006"),
		rec("bob", "Auditor", "op", "t", "Branch=Leeds, Period=2006"),
	); err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.WALOps() != 1 {
		t.Fatalf("len=%d walOps=%d", ds.Len(), ds.WALOps())
	}
	ok, _ := ds.UserHasRole("alice", bctx.MustParse("Branch=*, Period=2006"), "Teller")
	if !ok {
		t.Error("query against durable store failed")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: state recovered from WAL alone (no compaction yet).
	ds2 := openDurable(t, dir)
	if ds2.Len() != 2 {
		t.Fatalf("recovered %d records", ds2.Len())
	}
	ok, _ = ds2.UserHasRole("bob", bctx.Universal, "Auditor")
	if !ok {
		t.Error("bob's record lost across reopen")
	}
}

func TestDurablePurgesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir)
	if err := ds.Append(
		rec("alice", "Teller", "op", "t", "P=1"),
		rec("alice", "Teller", "op", "t", "P=2"),
		rec("bob", "Auditor", "op", "t", "P=1"),
	); err != nil {
		t.Fatal(err)
	}
	n, err := ds.PurgeContext(bctx.MustParse("P=1"))
	if err != nil || n != 2 {
		t.Fatalf("purge = %d, %v", n, err)
	}
	if _, err := ds.PurgeUser("alice"); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	ds2 := openDurable(t, dir)
	if ds2.Len() != 0 {
		t.Fatalf("recovered %d records, want 0 (purges must replay)", ds2.Len())
	}
}

func TestDurableCompact(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir)
	for i := 0; i < 10; i++ {
		if err := ds.Append(rec(fmt.Sprintf("u%d", i), "R", "op", "t", "P=1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if ds.WALOps() != 0 {
		t.Errorf("WALOps after compact = %d", ds.WALOps())
	}
	// The WAL file must be empty now.
	fi, err := os.Stat(filepath.Join(dir, durableWALName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Errorf("wal size after compact = %d", fi.Size())
	}
	// Post-compact mutations land in the fresh WAL.
	if err := ds.Append(rec("post", "R", "op", "t", "P=2")); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	ds2 := openDurable(t, dir)
	if ds2.Len() != 11 {
		t.Fatalf("recovered %d records, want 11", ds2.Len())
	}
	ok, _ := ds2.UserHasRole("post", bctx.Universal, "R")
	if !ok {
		t.Error("post-compact record lost")
	}
}

func TestDurableTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir)
	for i := 0; i < 5; i++ {
		if err := ds.Append(rec(fmt.Sprintf("u%d", i), "R", "op", "t", "P=1")); err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()

	// Simulate a crash mid-write: chop bytes off the final WAL record.
	walPath := filepath.Join(dir, durableWALName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-10], 0o600); err != nil {
		t.Fatal(err)
	}

	ds2 := openDurable(t, dir)
	if ds2.Len() != 4 {
		t.Fatalf("recovered %d records, want 4 (torn tail dropped)", ds2.Len())
	}
	// The store is writable again and the truncated WAL continues.
	if err := ds2.Append(rec("u9", "R", "op", "t", "P=1")); err != nil {
		t.Fatal(err)
	}
	ds2.Close()
	ds3 := openDurable(t, dir)
	if ds3.Len() != 5 {
		t.Fatalf("after repair+append: %d records, want 5", ds3.Len())
	}
}

func TestDurableMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir)
	for i := 0; i < 3; i++ {
		if err := ds.Append(rec(fmt.Sprintf("u%d", i), "R", "op", "t", "P=1")); err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()

	walPath := filepath.Join(dir, durableWALName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xff // corrupt the first record, not the tail
	if err := os.WriteFile(walPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, []byte("durable-secret"), false); err == nil {
		t.Fatal("mid-log corruption accepted as torn tail")
	}
}

func TestDurableWrongSecret(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir)
	if err := ds.Append(rec("u", "R", "op", "t", "P=1")); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	if _, err := OpenDurable(dir, []byte("other-secret"), false); err == nil {
		t.Fatal("wrong secret opened the store")
	}
	if _, err := OpenDurable(t.TempDir(), nil, false); err == nil {
		t.Fatal("empty secret accepted")
	}
}

func TestDurableSyncMode(t *testing.T) {
	ds, err := OpenDurable(t.TempDir(), []byte("k"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.Append(rec("u", "R", "op", "t", "P=1")); err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1 {
		t.Error("sync-mode append lost")
	}
}

func TestDurableEmptyAppendIsNoop(t *testing.T) {
	ds := openDurable(t, t.TempDir())
	if err := ds.Append(); err != nil {
		t.Fatal(err)
	}
	if ds.WALOps() != 0 {
		t.Error("empty append logged a WAL entry")
	}
}

func TestDurablePurgeBefore(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir)
	old := Record{User: "u", Roles: []rbac.RoleName{"R"}, Operation: "op", Target: "t",
		Context: bctx.MustParse("P=1"), Time: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)}
	newer := Record{User: "u", Roles: []rbac.RoleName{"R"}, Operation: "op", Target: "t",
		Context: bctx.MustParse("P=2"), Time: time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC)}
	if err := ds.Append(old, newer); err != nil {
		t.Fatal(err)
	}
	n, err := ds.PurgeBefore(time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil || n != 1 {
		t.Fatalf("PurgeBefore = %d, %v", n, err)
	}
	ds.Close()
	ds2 := openDurable(t, dir)
	if ds2.Len() != 1 {
		t.Fatalf("recovered %d, want 1", ds2.Len())
	}
}

// TestDurableHistoryMatchesAfterReopen: whatever name an embedding
// application manages to build and record under, the user's history
// answers the same after a restart. The log carries Context.String()
// and recovery parses it, which trims whitespace around tokens: a name
// with a token like " York" used to come back as a different instance,
// and the user's next request in it found no history — an under-count.
// bctx.NewName now refuses such tokens, so none reaches the store.
func TestDurableHistoryMatchesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDurable(dir, []byte("k"), false)
	if err != nil {
		t.Fatal(err)
	}
	var names []bctx.Name
	for _, value := range []string{"York", "New York", " York", "York ", "\tYork\n"} {
		name, err := bctx.NewName(bctx.Component{Type: "Branch", Value: value})
		if err != nil {
			continue // refused before it can be recorded
		}
		names = append(names, name)
		r := Record{User: "alice", Roles: []rbac.RoleName{"Teller"}, Operation: "HandleCash", Target: "till",
			Context: name, Time: time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)}
		if err := ds.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(names) < 2 {
		t.Fatalf("only %d of the names were accepted; York and New York must be", len(names))
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err = OpenDurable(dir, []byte("k"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, name := range names {
		if held, err := ds.UserHasRole("alice", name, "Teller"); err != nil || !held {
			t.Errorf("after reopen alice holds no Teller record in %q (%v): the instance came back as another", name, err)
		}
	}
}

// TestQuickDurableEquivalence: under random mutate/compact/reopen
// sequences — context, user and age purges and activations
// included — the durable store agrees with the reference model on
// everything observable after every operation.
func TestQuickDurableEquivalence(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		dir, err := os.MkdirTemp("", "msod-durable-quick-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		ds, err := OpenDurable(dir, []byte("k"), false)
		if err != nil {
			return false
		}
		defer func() { ds.Close() }()
		want := newReference()

		for i := 0; i < int(n); i++ {
			switch r.Intn(8) {
			case 0: // compact
				err = ds.Compact()
			case 1: // reopen
				if err = ds.Close(); err == nil {
					ds, err = OpenDurable(dir, []byte("k"), false)
				}
			default:
				err = mutate(r, i, ds, want)
			}
			if err == nil {
				err = sameState(ds, want)
			}
			if err == nil {
				err = sameAnswers(r, ds, want)
			}
			if err != nil {
				t.Logf("seed %d, operation %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
