package audit

import (
	"context"
	"encoding/json"
	"testing"

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
