package audit

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/core"
	"msod/internal/workload"
)

// TestRecoveryPathsAgree runs seeded bank traffic through a live engine
// over a durable store, logging every decision to the trail as the PDP
// does, and recovers the retained ADI by each of the three paths a PDP
// has (experiment E5): replaying the trail (§5.2's start-up procedure),
// loading a sealed snapshot of the live records (§6's planned
// successor), and reopening the durable store after a compaction
// halfway through. Each must give exactly the live store's records,
// field for field — with and without the CommitAudit last step, so the
// paths also agree on what a last step purged.
func TestRecoveryPathsAgree(t *testing.T) {
	for _, last := range []bool{false, true} {
		for _, c := range []struct{ events, noLast, withLast int }{
			{1_000, 933, 184},
			{5_000, 3_941, 635},
		} {
			want := c.noLast
			policy := workload.BankPolicy()
			if last {
				want = c.withLast
			} else {
				policy.LastStep = nil
			}
			t.Run(fmt.Sprintf("last=%v/%d", last, c.events), func(t *testing.T) {
				live := recoverFromEachPath(t, []core.Policy{policy}, c.events)
				if len(live) != want {
					t.Errorf("live store holds %d records, want %d", len(live), want)
				}
			})
		}
	}
}

// recoverFromEachPath drives n events, checks every recovery path
// against the live store, and returns the live records.
func recoverFromEachPath(t *testing.T, policies []core.Policy, n int) []adi.Record {
	t.Helper()
	dir := t.TempDir()
	w, err := NewWriter(filepath.Join(dir, "trail"), testKey, 4096)
	if err != nil {
		t.Fatal(err)
	}
	store, err := adi.OpenDurable(filepath.Join(dir, "durable"), testKey, false)
	if err != nil {
		t.Fatal(err)
	}
	// The engine's clock is the event's time, so the live records carry
	// the timestamps the trail logs and replay restamps.
	at := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	eng, err := core.NewEngine(store, policies, core.WithClock(func() time.Time { return at }))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewBank(workload.BankConfig{
		Seed: int64(n), Users: 500, Branches: 8, Periods: 4,
		AuditorFraction: 0.2, CommitFraction: 0.01,
	})
	for i := 0; i < n; i++ {
		req := gen.Next()
		dec, err := eng.Evaluate(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(NewEvent(req, dec, at)); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			if err := store.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		at = at.Add(time.Second)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	live := store.All()

	// Trail replay.
	r, err := NewReader(filepath.Join(dir, "trail"), testKey)
	if err != nil {
		t.Fatal(err)
	}
	events, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	replayed := adi.NewStore()
	stats, err := Replay(events, policies, replayed)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Diverged != 0 {
		t.Errorf("replay: %d logged grants denied on re-evaluation", stats.Diverged)
	}
	sameRecords(t, "trail replay", replayed.All(), live)

	// Sealed snapshot.
	snap, err := adi.NewSecureStore(filepath.Join(dir, "adi.sealed"), testKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Save(live); err != nil {
		t.Fatal(err)
	}
	loaded := adi.NewStore()
	if _, err := snap.LoadInto(loaded); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "snapshot load", loaded.All(), live)

	// Durable reopen: the compacted snapshot plus the log written after.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := adi.OpenDurable(filepath.Join(dir, "durable"), testKey, false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	sameRecords(t, "durable reopen", reopened.All(), live)
	return live
}

// sameRecords fails unless got and want hold the same records, every
// field compared, in any order.
func sameRecords(t *testing.T, path string, got, want []adi.Record) {
	t.Helper()
	g, w := recordLines(got), recordLines(want)
	if slices.Equal(g, w) {
		return
	}
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Errorf("%s: %d records, live %d; first difference at %d:\n got  %s\n want %s",
				path, len(g), len(w), i, lineAt(g, i), lineAt(w, i))
			return
		}
	}
}

func recordLines(recs []adi.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		roles := make([]string, len(r.Roles))
		for j, role := range r.Roles {
			roles[j] = string(role)
		}
		out[i] = fmt.Sprintf("%s %s [%s] %s@%s %s", r.Time.UTC().Format(time.RFC3339Nano),
			r.User, strings.Join(roles, ","), r.Operation, r.Target, r.Context)
	}
	slices.Sort(out)
	return out
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(none)"
}
