package adi_test

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/fsx"
	"msod/internal/rbac"
)

// syncCountingFS is the real filesystem counting the WAL's Syncs. Once
// hold is set, a WAL Sync announces itself on held and waits for hold
// to close. Once lose is set, a writeback error is pending: the next
// Sync on each file description reports it, and every later one on that
// description reports success without syncing — the kernel's rule, by
// which the pages of a failed writeback are dropped and the error goes
// once to each open file. A Sync that starts while another runs on the
// same description is counted in shared.
type syncCountingFS struct {
	fsx.FS
	syncs  atomic.Int64
	shared atomic.Int64
	hold   atomic.Pointer[chan struct{}]
	held   chan struct{}
	lose   atomic.Bool
}

var errWritebackLost = errors.New("writeback lost")

func newSyncCountingFS() *syncCountingFS {
	return &syncCountingFS{FS: fsx.OS, held: make(chan struct{}, 8)}
}

func (c *syncCountingFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != "wal.log" {
		return f, err
	}
	return &syncCountingFile{File: f, fs: c}, nil
}

type syncCountingFile struct {
	fsx.File
	fs   *syncCountingFS
	busy atomic.Bool
	lost atomic.Bool
}

func (f *syncCountingFile) Sync() error {
	if !f.busy.CompareAndSwap(false, true) {
		f.fs.shared.Add(1)
	}
	defer f.busy.Store(false)
	if hold := f.fs.hold.Load(); hold != nil {
		f.fs.held <- struct{}{}
		<-*hold
	}
	f.fs.syncs.Add(1)
	if f.fs.lose.Load() {
		if f.lost.CompareAndSwap(false, true) {
			return errWritebackLost
		}
		return nil
	}
	return f.File.Sync()
}

// waiterCtx carries a decision's SyncWaiter, as the shard's per-decision
// context does.
type waiterCtx struct {
	context.Context
	w adi.SyncWaiter
}

func newWaiterCtx() *waiterCtx { return &waiterCtx{Context: context.Background()} }

func (c *waiterCtx) Value(key any) any {
	if key == adi.SyncKey {
		return &c.w
	}
	return c.Context.Value(key)
}

func openSynced(t *testing.T, dir string, cfs *syncCountingFS) *adi.DurableStore {
	t.Helper()
	ds, err := adi.OpenDurableFS(dir, []byte("sync-secret"), true, cfs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

const (
	till      = rbac.Object("http://bank.example/till")
	auditDesk = rbac.Object("http://audit.location.com/audit")
)

// syncPolicies is core's cashPolicies shape: an MMEP policy over each
// branch's period and the bank's MMER policy over the whole period,
// with its last step. A teller's HandleCash is recorded under both.
func syncPolicies() []core.Policy {
	return []core.Policy{{
		Context: bctx.MustParse("Branch=!, Period=!"),
		MMEP: []core.MMEPRule{{
			Privileges: []rbac.Permission{
				{Operation: "HandleCash", Object: till},
				{Operation: "Audit", Object: till},
			},
			Cardinality: 2,
		}},
	}, {
		Context:  bctx.MustParse("Branch=*, Period=!"),
		LastStep: &core.Step{Operation: "CommitAudit", Target: auditDesk},
		MMER: []core.MMERRule{{
			Roles:       []rbac.RoleName{"Teller", "Auditor"},
			Cardinality: 2,
		}},
	}}
}

func syncEngine(t *testing.T, store adi.Recorder) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(store, syncPolicies())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func cashRequest(user rbac.UserID, period string) core.Request {
	return core.Request{
		User: user, Roles: []rbac.RoleName{"Teller"},
		Operation: "HandleCash", Target: till,
		Context: bctx.MustParse("Branch=York, Period=" + period),
	}
}

// TestTwoPolicyGrantSyncsOnce: a grant recorded under two policies
// appends twice. Under a waiter it takes one Sync, when the decision
// waits; a library caller's Evaluate syncs each append before it
// returns, as it always has.
func TestTwoPolicyGrantSyncsOnce(t *testing.T) {
	cfs := newSyncCountingFS()
	ds := openSynced(t, t.TempDir(), cfs)
	e := syncEngine(t, ds)

	ctx := newWaiterCtx()
	dec, err := e.EvaluateCtx(ctx, cashRequest("alice", "p1"))
	if err != nil || dec.Effect != core.Grant || dec.Recorded != 2 {
		t.Fatalf("grant = %+v, %v; want two records", dec, err)
	}
	if n := cfs.syncs.Load(); n != 0 || !ctx.w.Pending() {
		t.Fatalf("%d Syncs before the decision waits (pending %v), want 0 and pending", n, ctx.w.Pending())
	}
	if err := ctx.w.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := cfs.syncs.Load(); n != 1 || ctx.w.Pending() {
		t.Fatalf("%d Syncs after the wait (pending %v), want 1", n, ctx.w.Pending())
	}

	if dec, err := e.Evaluate(cashRequest("bob", "p2")); err != nil || dec.Recorded != 2 {
		t.Fatalf("library grant = %+v, %v", dec, err)
	}
	if n := cfs.syncs.Load(); n != 3 {
		t.Fatalf("%d Syncs after a library caller's two-policy grant, want 1+2", n)
	}
}

// TestLastStepPurgeSyncedBeforeAnswer: a last step's purge is synced
// under the locks, before the engine returns the grant, whether or not
// the decision carries a waiter; it covers every entry before it, so
// the waiter has nothing left to sync.
func TestLastStepPurgeSyncedBeforeAnswer(t *testing.T) {
	cfs := newSyncCountingFS()
	ds := openSynced(t, t.TempDir(), cfs)
	e := syncEngine(t, ds)

	first := newWaiterCtx()
	if dec, err := e.EvaluateCtx(first, cashRequest("alice", "p1")); err != nil || dec.Recorded != 2 {
		t.Fatalf("teller grant = %+v, %v", dec, err)
	}
	last := newWaiterCtx()
	dec, err := e.EvaluateCtx(last, core.Request{
		User: "carol", Roles: []rbac.RoleName{"Manager"},
		Operation: "CommitAudit", Target: auditDesk,
		Context: bctx.MustParse("Branch=York, Period=p1"),
	})
	if err != nil || dec.Effect != core.Grant || dec.Purged != 2 {
		t.Fatalf("last step = %+v, %v; want a grant purging both records", dec, err)
	}
	if n := cfs.syncs.Load(); n != 1 || last.w.Pending() {
		t.Fatalf("%d Syncs when the last step is answered (pending %v), want its purge's 1", n, last.w.Pending())
	}
	if err := first.w.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := cfs.syncs.Load(); n != 1 {
		t.Fatalf("%d Syncs: the purge's sync did not cover the entries before it", n)
	}
}

// TestCloseWaitsOutInFlightSync: Close does not close the log under a
// Sync running outside the lock. It returns after that Sync, neither
// of them fails, and Close adds no Sync of its own.
func TestCloseWaitsOutInFlightSync(t *testing.T) {
	cfs := newSyncCountingFS()
	ds, err := adi.OpenDurableFS(t.TempDir(), []byte("sync-secret"), true, cfs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newWaiterCtx()
	if err := ds.AppendCtx(ctx, adi.Record{User: "alice", Roles: []rbac.RoleName{"Teller"}, Context: bctx.MustParse("Branch=York, Period=p1"), Time: time.Unix(1, 0)}); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	cfs.hold.Store(&hold)
	waited := make(chan error, 1)
	go func() { waited <- ctx.w.Wait() }()
	<-cfs.held
	closed := make(chan error, 1)
	go func() { closed <- ds.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a Sync was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	if err := <-waited; err != nil {
		t.Fatalf("the in-flight Sync failed: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := cfs.syncs.Load(); n != 1 {
		t.Fatalf("%d Syncs, want the waiter's 1", n)
	}
}

// TestCompactMarksSealedEntriesSynced: the snapshot Compact installs
// holds every entry written before it, so a waiter on one of them
// returns without a WAL Sync.
func TestCompactMarksSealedEntriesSynced(t *testing.T) {
	cfs := newSyncCountingFS()
	dir := t.TempDir()
	ds := openSynced(t, dir, cfs)
	ctx := newWaiterCtx()
	for _, period := range []string{"p1", "p2"} {
		if err := ds.AppendCtx(ctx, adi.Record{User: "alice", Roles: []rbac.RoleName{"Teller"}, Context: bctx.MustParse("Branch=York, Period=" + period), Time: time.Unix(1, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ctx.w.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := cfs.syncs.Load(); n != 0 {
		t.Fatalf("%d WAL Syncs after Compact, want 0", n)
	}
	ds.Close()
	reopened, err := adi.OpenDurable(dir, []byte("sync-secret"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != 2 {
		t.Fatalf("reopened %d records, want 2", reopened.Len())
	}
}

func tellerRecord(period string) adi.Record {
	return adi.Record{User: "alice", Roles: []rbac.RoleName{"Teller"}, Context: bctx.MustParse("Branch=York, Period=" + period), Time: time.Unix(1, 0)}
}

// TestFailedSyncSticks: eight decisions' entries wait on the log's
// sync, twice as many as the store has file descriptions for Syncs. The
// first Sync fails; every wait after it must fail too, although a Sync
// on the description that reported the error would now report success
// over the entries it lost. From the failure on, the store refuses
// every mutation, changes nothing in memory, and Close reports the log
// unsynced.
func TestFailedSyncSticks(t *testing.T) {
	cfs := newSyncCountingFS()
	ds, err := adi.OpenDurableFS(t.TempDir(), []byte("sync-secret"), true, cfs)
	if err != nil {
		t.Fatal(err)
	}
	waiters := make([]*waiterCtx, 8)
	for i := range waiters {
		waiters[i] = newWaiterCtx()
		if err := ds.AppendCtx(waiters[i], tellerRecord(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cfs.lose.Store(true)
	for i := len(waiters) - 1; i >= 0; i-- {
		if err := waiters[i].w.Wait(); !errors.Is(err, adi.ErrWriteFailed) {
			t.Fatalf("wait %d after the failed Sync = %v, want ErrWriteFailed", i, err)
		}
	}
	if n := cfs.syncs.Load(); n != 1 {
		t.Fatalf("%d Syncs, want only the failed one", n)
	}
	held := ds.Len()
	if err := ds.Append(tellerRecord("p9")); !errors.Is(err, adi.ErrWriteFailed) {
		t.Fatalf("Append after the failed Sync = %v, want ErrWriteFailed", err)
	}
	late := newWaiterCtx()
	if err := ds.AppendCtx(late, tellerRecord("p10")); !errors.Is(err, adi.ErrWriteFailed) || late.w.Pending() {
		t.Fatalf("AppendCtx after the failed Sync = %v (pending %v), want ErrWriteFailed", err, late.w.Pending())
	}
	if _, err := ds.PurgeUser("alice"); !errors.Is(err, adi.ErrWriteFailed) {
		t.Fatalf("PurgeUser after the failed Sync = %v, want ErrWriteFailed", err)
	}
	if n := ds.Len(); n != held {
		t.Fatalf("%d records after the refused mutations, want %d", n, held)
	}
	if err := ds.Close(); !errors.Is(err, adi.ErrWriteFailed) {
		t.Fatalf("Close after the failed Sync = %v, want ErrWriteFailed", err)
	}
	if n := cfs.syncs.Load(); n != 1 {
		t.Fatalf("%d Syncs, want only the failed one", n)
	}
}

// TestOverlappingSyncsEachSeeTheError: two decisions' Syncs run at
// once, so neither waits out the other's flush, each on its own file
// description. A writeback error during them goes to both: on one
// shared description it would go to one, and the other would
// acknowledge its entry.
func TestOverlappingSyncsEachSeeTheError(t *testing.T) {
	for _, lose := range []bool{false, true} {
		cfs := newSyncCountingFS()
		ds := openSynced(t, t.TempDir(), cfs)
		first := newWaiterCtx()
		if err := ds.AppendCtx(first, tellerRecord("p1")); err != nil {
			t.Fatal(err)
		}
		hold := make(chan struct{})
		var once sync.Once
		release := func() { once.Do(func() { close(hold) }) }
		t.Cleanup(release) // before Close's cleanup, when the test fails
		cfs.hold.Store(&hold)
		waited := make(chan error, 2)
		go func() { waited <- first.w.Wait() }()
		<-cfs.held

		second := newWaiterCtx()
		if err := ds.AppendCtx(second, tellerRecord("p2")); err != nil {
			t.Fatalf("append while a Sync runs: %v", err)
		}
		go func() { waited <- second.w.Wait() }()
		select {
		case <-cfs.held:
		case <-time.After(5 * time.Second):
			t.Fatal("the second Sync waited for the first")
		}
		cfs.lose.Store(lose)
		release()
		for range 2 {
			if err := <-waited; lose != errors.Is(err, adi.ErrWriteFailed) {
				t.Fatalf("lost writeback %v: wait = %v", lose, err)
			}
		}
		if n, shared := cfs.syncs.Load(), cfs.shared.Load(); n != 2 || shared != 0 {
			t.Fatalf("%d Syncs, %d on a description another Sync was using; want 2, 0", n, shared)
		}
	}
}

// gatedSyncFS is the real filesystem whose WAL Syncs, once armed, each
// announce themselves on started and wait there for their verdict: an
// error to fail with, or nil to go on and sync.
type gatedSyncFS struct {
	fsx.FS
	armed   atomic.Bool
	started chan chan error
}

func (g *gatedSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != "wal.log" {
		return f, err
	}
	return gatedSyncFile{f, g}, nil
}

type gatedSyncFile struct {
	fsx.File
	fs *gatedSyncFS
}

func (f gatedSyncFile) Sync() error {
	if !f.fs.armed.Load() {
		return f.File.Sync()
	}
	verdict := make(chan error)
	f.fs.started <- verdict
	if err := <-verdict; err != nil {
		return err
	}
	return f.File.Sync()
}

// TestSyncAfterAFailureAcknowledgesNothing: two decisions' Syncs run at
// once. The first fails; the second, begun before that failure, then
// succeeds. Its decision must still be refused: the failure cut the log
// back to what the Syncs before it covered, so the second decision's
// entry is gone from the disk. Reopened without Close, the store holds
// the one record synced before either.
func TestSyncAfterAFailureAcknowledgesNothing(t *testing.T) {
	gfs := &gatedSyncFS{FS: fsx.OS, started: make(chan chan error, 2)}
	dir := t.TempDir()
	ds, err := adi.OpenDurableFS(dir, []byte("sync-secret"), true, gfs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if err := ds.Append(tellerRecord("p0")); err != nil {
		t.Fatal(err)
	}
	gfs.armed.Store(true)
	wait := func(c *waiterCtx) chan error {
		done := make(chan error, 1)
		go func() { done <- c.w.Wait() }()
		return done
	}
	first, second := newWaiterCtx(), newWaiterCtx()
	if err := ds.AppendCtx(first, tellerRecord("p1")); err != nil {
		t.Fatal(err)
	}
	firstDone := wait(first)
	failing := <-gfs.started
	if err := ds.AppendCtx(second, tellerRecord("p2")); err != nil {
		t.Fatal(err)
	}
	secondDone := wait(second)
	succeeding := <-gfs.started

	failing <- errWritebackLost
	if err := <-firstDone; !errors.Is(err, adi.ErrWriteFailed) {
		t.Fatalf("wait on the failed Sync = %v, want ErrWriteFailed", err)
	}
	succeeding <- nil
	if err := <-secondDone; !errors.Is(err, adi.ErrWriteFailed) {
		t.Fatalf("wait on a Sync that succeeded after another failed = %v, want ErrWriteFailed", err)
	}
	gfs.armed.Store(false)
	reopened, err := adi.OpenDurable(dir, []byte("sync-secret"), true)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n := reopened.Len(); n != 1 {
		t.Fatalf("reopened with %d records, want the 1 synced before the failure", n)
	}
}
