package audit

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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
// bank's trail shaped like the benchmark's (workloadTrail): every event
// is replayed alone, and its allocations are added to its kind's. Each
// kind's budget is the floor of its mean, as testing.AllocsPerRun's is;
// growth the store and the replayer amortise over many events does not
// reach it. Every event pays its request back from the logged strings
// once per text: the replayer keeps each context it parsed and one
// typed slice per role, so only an event in a branch new to its period
// parses its context (1), and only a role's first event types it
// (1). They were 2 on every event while each parsed its context and
// typed its roles afresh. The bound name "Branch=*, Period=p" is the one
// the period's opening grant bound, in its slot, for every later event
// of the period.
//
// Budgets are exact; a change that moves one edits the table and names
// the allocation.
func TestReplayAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
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
		// Its context parsed (1) and the bound name, which nothing
		// bound before (1). The store's new instance and the list of
		// its unique Period value are, past each client's first period,
		// the ones a previous CommitAudit freed. Its decision is the
		// engine's shared plain grant. It was 3 while every event
		// parsed its context and typed its roles (2), 4 while every
		// grant was an object of its own (1).
		{name: "opening grant", budget: 2},
		// Its context parsed (1): about 64 in a period's 200 events.
		// The decision is the engine's shared plain grant. It was 2
		// while every event parsed its context and typed its roles, 3
		// while every grant was an object of its own (1).
		{name: "grant in a branch new to its period", budget: 1},
		// Nothing: the context and the role are the ones parsed and
		// typed before.
		{name: "grant in a branch its period named before", budget: 0},
		// The decision with Closed()'s one name beside it (1). The purge
		// allocates nothing: the store keeps what it frees for the next
		// period's opening grant. It was 3 while every event parsed its
		// context and typed its roles (2).
		{name: "CommitAudit", budget: 1},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	periods, texts := map[string]bool{}, map[string]bool{}
	for _, ev := range workloadTrail(20000, 2) {
		_, period, _ := strings.Cut(ev.Context, "Period=")
		kind := &kinds[2]
		switch {
		case ev.Operation == "CommitAudit":
			kind = &kinds[3]
		case !periods[period]:
			kind = &kinds[0]
		case !texts[ev.Context]:
			kind = &kinds[1]
		}
		periods[period], texts[ev.Context] = true, true
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

// BenchmarkReplay replays a 1,000-event bank trail shaped like the
// benchmark's (workloadTrail) into a fresh memory store per operation,
// so -benchmem reports what rebuilding a shard's retained ADI from its
// trail allocates.
func BenchmarkReplay(b *testing.B) {
	events, policies := workloadTrail(1000, 2), replayPolicies()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		stats, err := Replay(events, policies, adi.NewStore())
		if err != nil || stats.Replayed != len(events) {
			b.Fatalf("%+v, %v; want all %d events replayed", stats, err, len(events))
		}
	}
}

// replayPolicies is the bank's policy as workloadTrail's events were
// decided under: MMER({Teller, Auditor}, 2) over "Branch=*, Period=!",
// closed by CommitAudit.
func replayPolicies() []core.Policy { return bankPolicies() }

// workloadTrail is events grants in a bank's trail shaped like the
// benchmark's bank traffic (benchmark/gen.go): clients clients, each
// with one audit period open at a time, their events interleaved at
// random. A period is 200 grants, each by one of 24 staff in one of 64
// branches at random, then an auditor's CommitAudit in one more; 7 of
// the staff audit the ledger as Auditor, the rest handle cash as
// Teller, so every event is a grant. The seed is fixed: the trail is
// the same on every call.
func workloadTrail(events, clients int) []Event {
	const branches, periodLen, staff, auditors = 64, 200, 24, 7
	rng := rand.New(rand.NewSource(1))
	at := time.Date(2006, 7, 1, 9, 0, 0, 0, time.UTC)
	open := make([]struct{ serial, next int }, clients)
	out := make([]Event, 0, events)
	for len(out) < events {
		c := rng.Intn(clients)
		o := &open[c]
		period := fmt.Sprintf("c%d-%d", c, o.serial)
		s := rng.Intn(staff)
		user, role, op, target := fmt.Sprintf("u%d-%s", s, period), "Teller", "HandleCash", "till"
		switch {
		case o.next == periodLen:
			user, role, op, target = "aud-"+period, "Auditor", "CommitAudit", "audit"
		case s < auditors:
			role, op, target = "Auditor", "Audit", "ledger"
		}
		out = append(out, Event{
			Seq: uint64(len(out) + 1), Time: at,
			User: user, Roles: []string{role}, Operation: op, Target: target,
			Context: fmt.Sprintf("Branch=b%04d, Period=%s", rng.Intn(branches), period),
			Effect:  EffectGrant, MatchedPolicies: 1,
		})
		at = at.Add(time.Second)
		if o.next++; o.next > periodLen {
			o.serial, o.next = o.serial+1, 0
		}
	}
	return out
}
