package adi

import (
	"context"
	"fmt"
	"io/fs"
	"testing"

	"msod/internal/bctx"
	"msod/internal/fsx"
	"msod/internal/race"
	"msod/internal/rbac"
)

// populate fills the store with n records that no test pattern below
// touches: 500 users over n/4 distinct "Branch=b, Period=p" instances.
func populate(tb testing.TB, s *Store, n int) {
	tb.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = rec(fmt.Sprintf("u%d", i%500), "Teller", "HandleCash", "till",
			fmt.Sprintf("Branch=b%d, Period=p%d", i%64, i%(n/4)))
	}
	if err := s.Append(recs...); err != nil {
		tb.Fatal(err)
	}
}

// process appends the three records of one tax-refund-like instance.
func process(tb testing.TB, s *Store, i int) bctx.Name {
	tb.Helper()
	ctx := fmt.Sprintf("TaxOffice=o1, taxRefundProcess=x%d", i)
	if err := s.Append(
		rec("c1", "Clerk", "prepareCheck", "check", ctx),
		rec("m1", "Manager", "approveCheck", "check", ctx),
		rec("m2", "Manager", "approveCheck", "check", ctx),
	); err != nil {
		tb.Fatal(err)
	}
	return bctx.MustParse(ctx)
}

// TestStoreAllocs: the queries of a decision and the purge that closes
// an instance allocate nothing, whatever the store holds, and an append
// allocates only what it retains that the store did not hold already.
func TestStoreAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const allocRuns = 200
	s := NewStore()
	populate(t, s, 10_000)
	open := make([]bctx.Name, allocRuns+1)
	for i := range open {
		open[i] = process(t, s, i)
	}
	// Appended during the measurement: known users, known instances.
	more := make([]Record, allocRuns+1)
	for i := range more {
		more[i] = rec("u7", "Teller", "HandleCash", "till", "Branch=b7, Period=p7")
	}
	// Opened and closed during the measurement: each a user with no
	// other record, in a process of its own.
	churn := make([]Record, allocRuns+1)
	for i := range churn {
		churn[i] = rec(fmt.Sprintf("n%d", i), "Clerk", "prepareCheck", "check",
			fmt.Sprintf("TaxOffice=o1, taxRefundProcess=n%d", i))
	}
	across := bctx.MustParse("Branch=*, Period=p7")
	absent := bctx.MustParse("TaxOffice=o1, taxRefundProcess=none")
	perm := rbac.Permission{Operation: "HandleCash", Object: "till"}

	i := 0
	for _, tc := range []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"ContextActive", 0, func() {
			if ok, _ := s.ContextActive(across); !ok {
				t.Fatal("Branch=*, Period=p7 has records")
			}
		}},
		{"ContextActive, no such instance", 0, func() {
			if ok, _ := s.ContextActive(absent); ok {
				t.Fatal("no such process")
			}
		}},
		{"UserHasRole", 0, func() {
			if ok, _ := s.UserHasRole("u7", across, "Teller"); !ok {
				t.Fatal("u7 was a Teller in Period=p7")
			}
		}},
		{"CountUserPrivilege", 0, func() {
			if n, _ := s.CountUserPrivilege("u7", across, perm, 0); n == 0 {
				t.Fatal("u7 handled cash in Period=p7")
			}
		}},
		// Nothing: the record's one role is the store's shared
		// "Teller" slice, where it was a copy of its own (1). The
		// user's bucket doubling is amortised below one per record.
		{"Append of one record", 0, func() {
			if err := s.Append(more[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}},
		{"PurgeContext of a 3-record instance", 0, func() {
			if n, _ := s.PurgeContext(open[i]); n != 3 {
				t.Fatalf("purged %d records of %q, want 3", n, open[i])
			}
			i++
		}},
		// Nothing: the new user's bucket, the new instance and the four
		// lists it is the only one in (each component under its value
		// and under any value: the row above closed every other process)
		// are the ones the previous run's purge freed. It was 6 when the
		// store threw them away.
		{"Append of a new user's record in a new instance, then its purge", 0, func() {
			if err := s.Append(churn[i]); err != nil {
				t.Fatal(err)
			}
			if n, _ := s.PurgeContext(churn[i].Context); n != 1 {
				t.Fatalf("purged %d records of %q, want 1", n, churn[i].Context)
			}
			i++
		}},
	} {
		i = 0
		if got := testing.AllocsPerRun(allocRuns, tc.fn); got != tc.budget {
			t.Errorf("%s: %v allocations, budget %v", tc.name, got, tc.budget)
		}
	}
}

// BenchmarkPurgeContext opens and closes one 3-record instance in
// stores of growing size (the three appends are timed with the purge:
// stopping the timer around them costs more than either). Closing costs
// what it removes, so ns/op is flat in the number of unrelated records;
// it grew with it while the purge walked every record of every user.
func BenchmarkPurgeContext(b *testing.B) {
	ctx := bctx.MustParse("TaxOffice=o1, taxRefundProcess=x")
	opening := []Record{
		rec("c1", "Clerk", "prepareCheck", "check", ctx.String()),
		rec("m1", "Manager", "approveCheck", "check", ctx.String()),
		rec("m2", "Manager", "approveCheck", "check", ctx.String()),
	}
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			s := NewStore()
			populate(b, s, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Append(opening...); err != nil {
					b.Fatal(err)
				}
				if removed, _ := s.PurgeContext(ctx); removed != 3 {
					b.Fatalf("purged %d records, want 3", removed)
				}
			}
		})
	}
}

// BenchmarkStoreChurn opens and closes 3-record instances whose users
// hold nothing else, in a store of 10,000 unrelated records: the
// retained ADI's steady state under §4.2 step 7, where most of what an
// opening grant needs is what the last closing one freed.
func BenchmarkStoreChurn(b *testing.B) {
	const ring = 256
	opening := make([][]Record, ring)
	closing := make([]bctx.Name, ring)
	for i := range opening {
		ctx := fmt.Sprintf("TaxOffice=o1, taxRefundProcess=c%d", i)
		for _, u := range []string{"c", "m", "n"} {
			opening[i] = append(opening[i], rec(fmt.Sprintf("%s%d", u, i), "Clerk", "prepareCheck", "check", ctx))
		}
		closing[i] = bctx.MustParse(ctx)
	}
	s := NewStore()
	populate(b, s, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(opening[i%ring]...); err != nil {
			b.Fatal(err)
		}
		if removed, _ := s.PurgeContext(closing[i%ring]); removed != 3 {
			b.Fatalf("purged %d records, want 3", removed)
		}
	}
}

// TestDurableAppendAllocs: a logged append of a known user's record in
// an open instance allocates nothing it retains. The entry's JSON
// (appendWALEntry) and its sealing (nonce, ciphertext, base64 line) run
// in the store's own scratch, and the op is applied to the memory store
// from the records in hand, not from a re-parse of the line; the
// record's one role is the memory store's shared slice, where it was a
// copy of its own (1). The one left: the variadic slice the call
// builds, which escapes because Apply hands the records on through the
// Recorder interface (1) — the engine passes a slice of its commit
// buffer and pays nothing here. Under a traced context the WAL span
// costs nothing more: the Tracer is looked up and called through its
// interface, and the deferred close is open-coded.
func TestDurableAppendAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	ds, err := OpenDurable(t.TempDir(), []byte("allocs"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	r := rec("u7", "Teller", "HandleCash", "till", "Branch=b7, Period=p7")
	if err := ds.Append(r); err != nil { // opens the instance, sizes the scratch
		t.Fatal(err)
	}
	spans := &walSpans{}
	traced := context.WithValue(context.Background(), TracerKey, Tracer(spans))
	for _, tc := range []struct {
		name   string
		append func() error
	}{
		{"Append", func() error { return ds.Append(r) }},
		{"AppendCtx, traced", func() error { return ds.AppendCtx(traced, r) }},
	} {
		got := testing.AllocsPerRun(200, func() {
			if err := tc.append(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("%s: %v allocs, budget 1", tc.name, got)
		}
	}
	if spans.opened != 201 || spans.closed != spans.opened || spans.name != SpanWAL {
		t.Fatalf("traced appends opened %d %q spans and closed %d, want 201 of %q", spans.opened, spans.name, spans.closed, SpanWAL)
	}
}

// TestDeferredSyncAllocs: on a store that syncs, an append whose sync a
// decision's waiter takes allocates what Append does, and the Sync it
// waits for nothing.
func TestDeferredSyncAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	ds, err := OpenDurableFS(t.TempDir(), []byte("allocs"), true, noSyncFS{fsx.OS})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	r := rec("u7", "Teller", "HandleCash", "till", "Branch=b7, Period=p7")
	if err := ds.Append(r); err != nil { // opens the instance, sizes the scratch
		t.Fatal(err)
	}
	w := &SyncWaiter{}
	ctx := context.WithValue(context.Background(), SyncKey, w)
	got := testing.AllocsPerRun(200, func() {
		if err := ds.AppendCtx(ctx, r); err != nil || !w.Pending() {
			t.Fatalf("append = %v (pending %v)", err, w.Pending())
		}
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("%v allocs, budget 1", got)
	}
}

// noSyncFS is the real filesystem with every Sync a no-op.
type noSyncFS struct{ fsx.FS }

func (n noSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := n.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ fsx.File }

func (noSyncFile) Sync() error { return nil }

// walSpans is a Tracer that counts the spans it is handed.
type walSpans struct {
	opened, closed int
	name           string
}

func (w *walSpans) OpenSpan(name string) int { w.opened++; w.name = name; return w.opened }
func (w *walSpans) CloseSpan(int)            { w.closed++ }
