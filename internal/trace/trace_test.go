package trace

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"msod/internal/explain"
	"msod/internal/obsv"
)

// fill files a decision with spanCount spans kept for reason in the
// ring, under traceID and, as an answered decision, requestID.
func fill(rc *explain.Ring, traceID, outcome, reason string, spanCount int) {
	e := rc.Begin()
	spans := make([]obsv.Span, spanCount)
	for i := range spans {
		spans[i].Name = obsv.StageMSoD
	}
	e.Keep(reason, spans)
	rc.Commit(e, &explain.Decision{RequestID: "req-" + traceID, TraceID: traceID, Time: time.Now(), Outcome: outcome})
}

// get renders what GET /v1/traces serves for traceID.
func get(rc *explain.Ring, traceID string) (Record, bool) {
	e, ok := rc.Trace(traceID)
	return NewRecord(&e), ok
}

func TestSampleAlwaysKeepsRefusalsAndErrors(t *testing.T) {
	st := NewStore(Config{}) // no sampling, no slow threshold
	if r, keep := st.Sample("a1", true, false, 0); !keep || r != ReasonRefusal {
		t.Fatalf("refusal: got %q keep=%v", r, keep)
	}
	if r, keep := st.Sample("a2", false, true, 0); !keep || r != ReasonError {
		t.Fatalf("error: got %q keep=%v", r, keep)
	}
	// An errored refusal counts as error: the rarer, more severe event.
	if r, keep := st.Sample("a3", true, true, 0); !keep || r != ReasonError {
		t.Fatalf("errored refusal: got %q keep=%v", r, keep)
	}
	if _, keep := st.Sample("a4", false, false, time.Second); keep {
		t.Fatal("fast grant kept with sampling and slow threshold off")
	}
	if st.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped())
	}
}

func TestSampleSlowThreshold(t *testing.T) {
	st := NewStore(Config{SlowThreshold: 10 * time.Millisecond})
	if r, keep := st.Sample("b1", false, false, 11*time.Millisecond); !keep || r != ReasonSlow {
		t.Fatalf("slow grant: got %q keep=%v", r, keep)
	}
	if r, keep := st.Sample("b3", false, false, 10*time.Millisecond); !keep || r != ReasonSlow {
		t.Fatalf("grant at the threshold, which the slow log names: got %q keep=%v", r, keep)
	}
	if _, keep := st.Sample("b2", false, false, 9*time.Millisecond); keep {
		t.Fatal("fast grant kept below threshold")
	}
}

// Tail-sampling determinism: the kept set is a pure function of the
// trace IDs, so the same decision stream — shuffled, or raced across
// goroutines — retains exactly the same traces.
func TestSampleDeterministicAcrossOrderAndConcurrency(t *testing.T) {
	ids := make([]string, 2000)
	for i := range ids {
		ids[i] = fmt.Sprintf("%032x", i+1)
	}

	keptSet := func(ids []string) map[string]bool {
		st := NewStore(Config{SampleEvery: 7})
		kept := map[string]bool{}
		for _, id := range ids {
			if _, keep := st.Sample(id, false, false, 0); keep {
				kept[id] = true
			}
		}
		return kept
	}

	sequential := keptSet(ids)
	if len(sequential) == 0 || len(sequential) == len(ids) {
		t.Fatalf("sampler kept %d of %d, want a strict subset", len(sequential), len(ids))
	}

	shuffled := append([]string(nil), ids...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if got := keptSet(shuffled); len(got) != len(sequential) {
		t.Fatalf("shuffled stream kept %d, sequential kept %d", len(got), len(sequential))
	} else {
		for id := range got {
			if !sequential[id] {
				t.Fatalf("shuffled stream kept %s, sequential did not", id)
			}
		}
	}

	// Concurrent: same IDs raced across goroutines, same kept set.
	st := NewStore(Config{SampleEvery: 7})
	var mu sync.Mutex
	kept := map[string]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ids); i += 8 {
				if _, keep := st.Sample(ids[i], false, false, 0); keep {
					mu.Lock()
					kept[ids[i]] = true
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if len(kept) != len(sequential) {
		t.Fatalf("concurrent stream kept %d, sequential kept %d", len(kept), len(sequential))
	}
	for id := range kept {
		if !sequential[id] {
			t.Fatalf("concurrent stream kept %s, sequential did not", id)
		}
	}
}

// 100% retention of refusals and errors under concurrent load: every
// refused or errored decision must be retrievable afterwards from the
// decision ring (capacity is sized to the stream so rotation cannot
// excuse a miss).
func TestRefusalsAndErrorsFullyRetainedConcurrently(t *testing.T) {
	const n = 1000
	st, rc := NewStore(Config{}), explain.NewRing(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				id := fmt.Sprintf("%032x", i+1)
				refused := i%2 == 0
				errored := !refused && i%3 == 0
				reason, keep := st.Sample(id, refused, errored, 0)
				if refused || errored {
					if !keep {
						t.Errorf("refusal/error %s not kept", id)
						return
					}
					fill(rc, id, "deny", reason, 3)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%032x", i+1)
		refused := i%2 == 0
		errored := !refused && i%3 == 0
		if refused || errored {
			if rec, ok := get(rc, id); !ok || len(rec.Spans) != 3 {
				t.Fatalf("refusal/error %s not retrievable (%v, %d spans)", id, ok, len(rec.Spans))
			}
		}
	}
	if got := st.SampledTotal(ReasonRefusal) + st.SampledTotal(ReasonError); got == 0 {
		t.Fatal("sampled counters not advanced")
	}
}

// Kept trees rotate out with their decisions: past the ring's capacity
// the oldest traces stop being served, and the spans still served are
// exactly those of the newest traces.
func TestRingEvictionAndSpanGauge(t *testing.T) {
	rc := explain.NewRing(4)
	for i := 0; i < 10; i++ {
		fill(rc, fmt.Sprintf("%032x", i+1), "deny", ReasonRefusal, i+1)
	}
	if _, traced := rc.Retained(); traced != 4 {
		t.Fatalf("traced = %d, want 4", traced)
	}
	if rc.Evicted() != 6 {
		t.Fatalf("evicted = %d, want 6", rc.Evicted())
	}
	spans := 0
	for i := 0; i < 10; i++ {
		if rec, ok := get(rc, fmt.Sprintf("%032x", i+1)); ok {
			spans += len(rec.Spans)
		}
	}
	// Remaining traces are 7..10 with 7+8+9+10 spans.
	if spans != 34 {
		t.Fatalf("served spans = %d, want 34", spans)
	}
	if _, ok := get(rc, fmt.Sprintf("%032x", 1)); ok {
		t.Fatal("evicted trace still retrievable")
	}
	rec, ok := get(rc, fmt.Sprintf("%032x", 10))
	if !ok || len(rec.Spans) != 10 || rec.SampledFor != ReasonRefusal {
		t.Fatalf("newest trace: ok=%v spans=%d sampledFor=%q", ok, len(rec.Spans), rec.SampledFor)
	}
}

// A served record is a deep copy: mutating it, or having the pooled
// entry it was rendered from evicted and reused, must not change the
// other.
func TestGetIsDeepCopy(t *testing.T) {
	rc := explain.NewRing(1)
	id := fmt.Sprintf("%032x", 7)
	fill(rc, id, "deny", ReasonRefusal, 2)
	got, _ := get(rc, id)
	fill(rc, fmt.Sprintf("%032x", 8), "deny", ReasonRefusal, 5) // evicts + reuses
	if got.TraceID != id || len(got.Spans) != 2 || got.Spans[0].Name != obsv.StageMSoD {
		t.Fatalf("copy corrupted by eviction: %+v", got)
	}
	got.Spans[0].Name = "mutated"
	if rec, ok := get(rc, fmt.Sprintf("%032x", 8)); !ok || rec.Spans[0].Name == "mutated" {
		t.Fatal("mutating a served record leaked into the ring")
	}
}

// Pooled entries must be reusable without leaking one decision's spans
// into another's served trace — run with -race.
func TestPoolReuseLeakFree(t *testing.T) {
	rc := explain.NewRing(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := rc.Begin()
				if e.TraceID != "" || e.SampledFor != "" || len(e.Spans) != 0 {
					t.Errorf("pooled entry not reset: %+v", e)
					return
				}
				// Commit hands e to the ring, or to the pool when the
				// sampler kept no tree: another goroutine may hold it by
				// the time get runs.
				id := fmt.Sprintf("%08x%024x", g, i)
				if i%3 != 0 {
					e.Keep(ReasonRefusal, []obsv.Span{{Name: id}})
				}
				rc.Commit(e, &explain.Decision{TraceID: id, Time: time.Now(), Outcome: "deny"})
				if i%5 == 0 {
					if r, ok := get(rc, id); ok && (r.TraceID != id || len(r.Spans) != 1 || r.Spans[0].Name != id) {
						t.Errorf("trace %s served foreign content: %+v", id, r)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSetSpansConvertsOffsets(t *testing.T) {
	tr := obsv.NewTrace("0af7651916cd43dd8448eb211c80319c")
	end := tr.StartSpan(obsv.StageMSoD)
	tr.StartSpan(obsv.StageStore).End()
	end.End()

	rec := Record{TraceID: string(tr.ID()), Time: tr.Start()}
	rec.SetSpans(tr.Spans())
	if len(rec.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(rec.Spans))
	}
	byName := map[string]Span{}
	for _, s := range rec.Spans {
		byName[s.Name] = s
	}
	if byName[obsv.StageStore].Parent != obsv.StageMSoD {
		t.Fatalf("store parent = %q, want msod", byName[obsv.StageStore].Parent)
	}
	if byName[obsv.StageMSoD].StartOffsetUS < 0 || byName[obsv.StageStore].StartOffsetUS < byName[obsv.StageMSoD].StartOffsetUS {
		t.Fatalf("offsets out of order: %+v", rec.Spans)
	}
}
