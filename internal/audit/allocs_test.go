package audit

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/core"
	"msod/internal/race"
)

// TestAppendAllocs holds a trail append to nothing of its own: the
// keyed hash, the MAC, the event's JSON (appendEvent, written straight
// into the writer's buffer) and the line are the writer's own and are
// reused. The budget is exact, and a change that moves it edits this
// list: a one-role grant event with a trace ID allocates nothing.
func TestAppendAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	w, err := NewWriter(t.TempDir(), testKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	grant := ev("alice", "Teller", "HandleCash", EffectGrant, 1)
	grant.TraceID = "0af7651916cd43dd8448eb211c80319c"
	ctx := context.Background()
	if _, err := w.AppendCtx(ctx, grant); err != nil { // opens the segment, sizes the line
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := w.AppendCtx(ctx, grant); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("AppendCtx: %v allocs, budget 0", got)
	}
}

// TestChainMACAllocs: on a hash that has been Reset once (every writer
// and verifier's is, by its genesis MAC) chaining an entry allocates
// nothing. A verifier MACs the event's bytes as they stand in the
// line, so what it allocates per entry is parsing, not hashing.
func TestChainMACAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	chain := newChain(testKey)
	prev := genesisMAC(chain)
	grant := ev("alice", "Teller", "HandleCash", EffectGrant, 1)
	payload, err := json.Marshal(&grant)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]byte, 0, len(prev))
	if got := testing.AllocsPerRun(200, func() { copy(prev, chainMAC(chain, prev, payload, sum)) }); got != 0 {
		t.Fatalf("chainMAC: %v allocs, budget 0", got)
	}
}

// TestReplayAllocs holds Replay to what it allocates per event of a
// bank's trail (bankTrail): every event is replayed alone, and its
// allocations are added to its kind's. Each kind's budget is the floor
// of its mean, as testing.AllocsPerRun's is; growth the store amortises
// over many events does not reach it. Every event pays its request
// back from the logged strings (core.LoggedRequest): the context parsed
// (1) and the roles typed (1). The bound name "Branch=*, Period=p" is
// the one the period's opening grant bound, in its slot, for every
// later event of the period.
//
// Budgets are exact; a change that moves one edits the table and names
// the allocation.
func TestReplayAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const periods = 200
	r, err := newReplayer(replayPolicies(), adi.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name   string
		budget uint64
		events int
		allocs uint64
	}{
		// The request (2) and the bound name, which nothing bound
		// before (1). The store's new instance and the list of its
		// unique Period value are the ones the previous period's
		// CommitAudit freed. Its decision is the engine's shared plain
		// grant; it was 4 while every grant was an object of its own
		// (1).
		{name: "opening grant", budget: 3},
		// The request (2), nothing else: the decision is the engine's
		// shared plain grant. It was 3 while every grant was an object
		// of its own (1).
		{name: "recorded grant", budget: 2},
		// The request (2) and the decision with Closed()'s one name
		// beside it (1). The purge allocates nothing: the store keeps
		// what it frees for the next period's opening grant.
		{name: "CommitAudit", budget: 3},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i, ev := range bankTrail(periods) {
		kind := &kinds[1]
		switch {
		case i%5 == 0:
			kind = &kinds[0]
		case ev.Operation == "CommitAudit":
			kind = &kinds[2]
		}
		runtime.ReadMemStats(&before)
		dec, err := r.replay(ev)
		runtime.ReadMemStats(&after)
		if err != nil || dec == nil || dec.Effect != core.Grant {
			t.Fatalf("event %d: %v, %v; want a replayed grant", ev.Seq, dec, err)
		}
		kind.events++
		kind.allocs += after.Mallocs - before.Mallocs
	}
	for _, k := range kinds {
		if got := k.allocs / uint64(k.events); got != k.budget {
			t.Errorf("%s: %d allocations per event (%d over %d), budget %d (lower it too when the path loses one)",
				k.name, got, k.allocs, k.events, k.budget)
		}
	}
}

// BenchmarkReplay replays a 1,000-event bank trail (bankTrail: 800
// tellers' grants, 200 CommitAudits) into a fresh memory store per
// operation, so -benchmem reports what rebuilding a shard's retained
// ADI from its trail allocates.
func BenchmarkReplay(b *testing.B) {
	events, policies := bankTrail(200), replayPolicies()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		stats, err := Replay(events, policies, adi.NewStore())
		if err != nil || stats.Replayed != len(events) {
			b.Fatalf("%+v, %v; want all %d events replayed", stats, err, len(events))
		}
	}
}

// replayPolicies is the bank's policy as bankTrail's events were
// decided under: MMER({Teller, Auditor}, 2) over "Branch=*, Period=!",
// closed by CommitAudit.
func replayPolicies() []core.Policy { return bankPolicies() }

// bankTrail is a bank's trail over periods audit periods: in each, four
// tellers' grants at the till in two branches, the first opening the
// period, then an auditor's CommitAudit, which closes it. 200 periods
// are 800 grants and 200 closes.
func bankTrail(periods int) []Event {
	at := time.Date(2006, 7, 1, 9, 0, 0, 0, time.UTC)
	var events []Event
	for p := range periods {
		for _, s := range []struct{ user, role, op, target, branch string }{
			{"t1", "Teller", "HandleCash", "till", "York"},
			{"t2", "Teller", "HandleCash", "till", "Leeds"},
			{"t3", "Teller", "HandleCash", "till", "York"},
			{"t4", "Teller", "HandleCash", "till", "Leeds"},
			{"a1", "Auditor", "CommitAudit", "audit", "York"},
		} {
			events = append(events, Event{
				Seq: uint64(len(events) + 1), Time: at,
				User: s.user, Roles: []string{s.role}, Operation: s.op, Target: s.target,
				Context: fmt.Sprintf("Branch=%s, Period=p%d", s.branch, p),
				Effect:  EffectGrant, MatchedPolicies: 1,
			})
			at = at.Add(time.Minute)
		}
	}
	return events
}
