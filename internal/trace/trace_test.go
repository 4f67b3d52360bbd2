package trace

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"msod/internal/obsv"
)

func fill(st *Store, traceID, outcome, reason string, spanCount int) {
	rec := st.Begin()
	rec.TraceID = traceID
	rec.Time = time.Now()
	rec.Outcome = outcome
	rec.SampledFor = reason
	for i := 0; i < spanCount; i++ {
		rec.Spans = append(rec.Spans, Span{Name: obsv.StageMSoD})
	}
	st.Commit(rec)
}

func TestSampleAlwaysKeepsRefusalsAndErrors(t *testing.T) {
	st := NewStore(Config{Capacity: 8}) // no sampling, no slow threshold
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
// refused or errored decision must be retrievable afterwards (capacity
// is sized to the stream so rotation cannot excuse a miss).
func TestRefusalsAndErrorsFullyRetainedConcurrently(t *testing.T) {
	const n = 1000
	st := NewStore(Config{Capacity: n})
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
					fill(st, id, "deny", reason, 3)
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
			if _, ok := st.Get(id); !ok {
				t.Fatalf("refusal/error %s not retrievable", id)
			}
		}
	}
	if got := st.SampledTotal(ReasonRefusal) + st.SampledTotal(ReasonError); got == 0 {
		t.Fatal("sampled counters not advanced")
	}
}

func TestRingEvictionAndSpanGauge(t *testing.T) {
	st := NewStore(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		fill(st, fmt.Sprintf("%032x", i+1), "deny", ReasonRefusal, i+1)
	}
	if st.Len() != 4 || st.Capacity() != 4 {
		t.Fatalf("len=%d cap=%d, want 4/4", st.Len(), st.Capacity())
	}
	if st.Evicted() != 6 {
		t.Fatalf("evicted = %d, want 6", st.Evicted())
	}
	// Remaining traces are 7..10 with 7+8+9+10 spans.
	if st.SpanCount() != 34 {
		t.Fatalf("span count = %d, want 34", st.SpanCount())
	}
	if _, ok := st.Get(fmt.Sprintf("%032x", 1)); ok {
		t.Fatal("evicted trace still retrievable")
	}
	rec, ok := st.Get(fmt.Sprintf("%032x", 10))
	if !ok || len(rec.Spans) != 10 {
		t.Fatalf("newest trace: ok=%v spans=%d", ok, len(rec.Spans))
	}
}

// Get must deep-copy: mutating the returned record (or having the
// pooled original evicted and reused) must not corrupt earlier reads.
func TestGetIsDeepCopy(t *testing.T) {
	st := NewStore(Config{Capacity: 1})
	id := fmt.Sprintf("%032x", 7)
	fill(st, id, "deny", ReasonRefusal, 2)
	got, _ := st.Get(id)
	fill(st, fmt.Sprintf("%032x", 8), "deny", ReasonRefusal, 5) // evicts + reuses
	if got.TraceID != id || len(got.Spans) != 2 || got.Spans[0].Name != obsv.StageMSoD {
		t.Fatalf("copy corrupted by eviction: %+v", got)
	}
	got.Spans[0].Name = "mutated"
	if rec, ok := st.Get(fmt.Sprintf("%032x", 8)); ok && len(rec.Spans) > 0 && rec.Spans[0].Name == "mutated" {
		t.Fatal("mutating a Get result leaked into the store")
	}
}

// Pooled records must be reusable without leaking prior state — run
// with -race like the explain recorder's equivalent.
func TestPoolReuseLeakFree(t *testing.T) {
	st := NewStore(Config{Capacity: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := st.Begin()
				if rec.TraceID != "" || len(rec.Spans) != 0 || len(rec.Shards) != 0 {
					t.Errorf("pooled record not reset: %+v", rec)
					return
				}
				// Commit and Discard hand rec to the store and the pool:
				// another goroutine may hold it by the time Get runs.
				id := fmt.Sprintf("%08x%024x", g, i)
				rec.TraceID = id
				rec.Time = time.Now()
				rec.Spans = append(rec.Spans, Span{Name: obsv.StageCVS})
				if i%3 == 0 {
					st.Discard(rec)
				} else {
					st.Commit(rec)
				}
				if i%5 == 0 {
					if r, ok := st.Get(id); ok && r.TraceID == "" {
						t.Errorf("empty record served")
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

	st := NewStore(Config{})
	rec := st.Begin()
	rec.TraceID = string(tr.ID())
	rec.Time = tr.Start()
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
	st.Discard(rec)
}
