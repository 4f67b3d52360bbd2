package adi

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"msod/internal/bctx"
)

// activate applies an OpActivate of each bound at one time and returns
// how many it activated.
func activate(store Recorder, at time.Time, bounds ...bctx.Name) (int, error) {
	added := 0
	for _, b := range bounds {
		eff, err := Apply(store, Op{Kind: OpActivate, Bound: b, Time: at})
		if err != nil {
			return added, err
		}
		added += eff.Activated
	}
	return added, nil
}

func TestEnsureActiveIdempotent(t *testing.T) {
	store := NewStore()
	now := time.Now()
	p1 := bctx.MustParse("Proc=p1")
	p2 := bctx.MustParse("Proc=p2")

	added, err := activate(store, now, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("added = %d, want 2 activations", added)
	}
	for _, b := range []bctx.Name{p1, p2} {
		if active, _ := store.ContextActive(b); !active {
			t.Fatalf("%s not active after OpActivate", b)
		}
	}

	// Replays and overlapping fan-outs must not append again.
	added, err = activate(store, now, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("second OpActivate added %d, want 0", added)
	}
	if got := len(store.activations()); got != 2 || store.Len() != 0 || store.Users() != 0 {
		t.Fatalf("store holds %d activations, %d records of %d users; want 2 and no history", got, store.Len(), store.Users())
	}
}

func TestEnsureActiveSkipsContextsWithRealHistory(t *testing.T) {
	store := NewStore()
	bound := bctx.MustParse("Proc=p1")
	if err := store.Append(Record{
		User: "alice", Operation: "prepare", Target: "claim",
		Context: bound, Time: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	added, err := activate(store, time.Now(), bound)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("added = %d, want 0: real history already activates the instance", added)
	}
}

func TestActivationMarkerPurgedWithContext(t *testing.T) {
	store := NewStore()
	bound := bctx.MustParse("Proc=p1")
	if _, err := activate(store, time.Now(), bound); err != nil {
		t.Fatal(err)
	}
	if _, err := store.PurgeContext(bctx.MustParse("Proc=*")); err != nil {
		t.Fatal(err)
	}
	if active, _ := store.ContextActive(bound); active {
		t.Fatal("activation survived the administrative context purge")
	}
}

// TestActivationOutlivesUserPurges: an activation belongs to its
// instance, not to a user — purging the reserved user ID removes
// nothing, and a user purge that takes an instance's last record leaves
// it running. An age purge clears it once it is older than the cutoff.
func TestActivationOutlivesUserPurges(t *testing.T) {
	epoch := time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
	bound := bctx.MustParse("Proc=p1")
	store := NewStore()
	if _, err := activate(store, epoch, bound); err != nil {
		t.Fatal(err)
	}
	r := rec("alice", "Clerk", "prepare", "claim", "Proc=p1")
	r.Time = epoch.Add(time.Minute)
	if err := store.Append(r); err != nil {
		t.Fatal(err)
	}
	if n := store.PurgeUser(activationUser); n != 0 {
		t.Fatalf("purging the reserved user ID removed %d records", n)
	}
	if n := store.PurgeUser("alice"); n != 1 {
		t.Fatalf("PurgeUser(alice) = %d, want 1", n)
	}
	if active, _ := store.ContextActive(bound); !active {
		t.Fatal("a user purge ended the instance's activation")
	}
	if n := store.PurgeBefore(epoch); n != 0 {
		t.Fatalf("PurgeBefore(activation time) = %d", n)
	}
	if active, _ := store.ContextActive(bound); !active {
		t.Fatal("an age purge at the activation time cleared it (the cutoff is strict)")
	}
	store.PurgeBefore(epoch.Add(time.Second))
	if active, _ := store.ContextActive(bound); active || len(store.Instances()) != 0 {
		t.Fatal("an activation older than the cutoff survived the age purge")
	}
}

// TestReservedUserKeepsItsHistory: only the whole reserved triple
// encodes an activation; a grant recorded for a user who happens to
// carry the reserved ID is that user's history like any other.
func TestReservedUserKeepsItsHistory(t *testing.T) {
	store := NewStore()
	r := rec(string(activationUser), "Clerk", "prepare", "claim", "Proc=p1")
	if err := store.Append(r); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.CountUserRole(activationUser, bctx.Universal, "Clerk", 0); n != 1 || len(store.activations()) != 0 {
		t.Fatalf("the reserved user's grant counts %d, activations %d; want 1 and 0", n, len(store.activations()))
	}
}

// TestParentWrittenStoreReopens: testdata/parent-activations/store was
// written by the commit before activations left the user buckets — a
// snapshot holding two records and two markers, then a WAL of marker
// appends, a record, a purgeBefore that takes both snapshot records and
// one snapshot marker, a purgeContext that takes one WAL marker, and a
// no-op activation — with the answers that store gave recorded beside
// it. The same bytes reopen to the same activity and the same history,
// and, compacted and reopened, still do.
func TestParentWrittenStoreReopens(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent-activations", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{durableKeyCheckName, durableSnapshotName, durableWALName} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent-activations", "store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	check := func(ds *DurableStore) {
		t.Helper()
		var got strings.Builder
		for _, ps := range eqPatterns {
			active, err := ds.ContextActive(bctx.MustParse(ps))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "active\t%s\t%v\n", ps, active)
		}
		for _, r := range ds.All() {
			fmt.Fprintf(&got, "record\t%s\n", r)
		}
		if got.String() != string(golden) {
			t.Fatalf("reopened store answers\n%s\nthe parent's store answered\n%s", got.String(), golden)
		}
	}
	ds, err := OpenDurable(dir, []byte("parent-secret"), false)
	if err != nil {
		t.Fatal(err)
	}
	check(ds)
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = OpenDurable(dir, []byte("parent-secret"), false); err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	check(ds)
}
