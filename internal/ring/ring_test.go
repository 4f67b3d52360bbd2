package ring

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// rec is a pooled record of the shape the consumers file: a key, a
// scalar, and a slice whose backing array reset keeps for reuse.
type rec struct {
	Key  string
	Val  int
	Tags []int
}

func newRecRing(capacity int, evict func(*rec)) *Keyed[rec, rec] {
	return NewKeyed(capacity,
		func(r *rec) string { return r.Key },
		func(r *rec) { *r = rec{Tags: r.Tags[:0]} },
		func(r *rec) rec { out := *r; out.Tags = append([]int(nil), r.Tags...); return out },
		evict)
}

// TestKeyedAgainstModel drives random Begin/Commit/Discard/Get
// sequences, with keys drawn from an alphabet small enough that
// duplicates and lookups of evicted keys are common, through rings of
// capacity 1..8 and a model: a slice of the committed records, oldest
// first, cut to the capacity. The model's answer for a key is the
// newest retained record filed under it. A FIFO fed the same commits
// is held to the slice element by element.
func TestKeyedAgainstModel(t *testing.T) {
	for capacity := 1; capacity <= 8; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		var hookSaw []int // what the evict hook was shown since the last commit
		k := newRecRing(capacity, func(old *rec) { hookSaw = append(hookSaw, old.Val) })
		fifo := NewFIFO[int](capacity)
		var model []rec
		modelEvicted := 0
		keys := make([]string, capacity+3)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // commit
				r := k.Begin()
				if r.Key != "" || r.Val != 0 || len(r.Tags) != 0 {
					t.Fatalf("cap %d step %d: Begin returned a dirty record %+v", capacity, step, *r)
				}
				r.Key, r.Val = keys[rng.Intn(len(keys))], step
				for i := 0; i < rng.Intn(4); i++ {
					r.Tags = append(r.Tags, step)
				}
				model = append(model, rec{Key: r.Key, Val: r.Val, Tags: append([]int(nil), r.Tags...)})
				var out []int // what this commit pushes out of the model
				if len(model) > capacity {
					out = []int{model[0].Val}
					model = model[1:]
					modelEvicted++
				}
				hookSaw = nil
				k.Commit(r)
				if fmt.Sprint(hookSaw) != fmt.Sprint(out) {
					t.Fatalf("cap %d step %d: evict hook saw %v, model evicted %v", capacity, step, hookSaw, out)
				}
				if old, evicted := fifo.Push(step); evicted != (out != nil) || evicted && old != out[0] {
					t.Fatalf("cap %d step %d: FIFO evicted %d (%v), model evicted %v", capacity, step, old, evicted, out)
				}
			case op < 6: // begin, fill, discard: never visible
				r := k.Begin()
				r.Key, r.Val = keys[rng.Intn(len(keys))], -step
				r.Tags = append(r.Tags, -step)
				k.Discard(r)
			default: // lookup
				key := keys[rng.Intn(len(keys))]
				var want *rec
				for i := len(model) - 1; i >= 0 && want == nil; i-- {
					if model[i].Key == key {
						want = &model[i]
					}
				}
				got, ok := k.Get(key)
				if ok != (want != nil) {
					t.Fatalf("cap %d step %d: Get(%s) ok = %v, model has %v", capacity, step, key, ok, want)
				}
				if ok && (got.Key != want.Key || got.Val != want.Val || fmt.Sprint(got.Tags) != fmt.Sprint(want.Tags)) {
					t.Fatalf("cap %d step %d: Get(%s) = %+v, model %+v", capacity, step, key, got, *want)
				}
			}
			if k.Len() != len(model) || k.Capacity() != capacity || k.Evicted() != int64(modelEvicted) {
				t.Fatalf("cap %d step %d: len %d cap %d evicted %d; model len %d evicted %d",
					capacity, step, k.Len(), k.Capacity(), k.Evicted(), len(model), modelEvicted)
			}
			if fifo.Len() != len(model) || fifo.Cap() != capacity {
				t.Fatalf("cap %d step %d: FIFO len %d cap %d, model len %d", capacity, step, fifo.Len(), fifo.Cap(), len(model))
			}
			for i := range model {
				if fifo.At(i) != model[i].Val {
					t.Fatalf("cap %d step %d: FIFO.At(%d) = %d, model %d", capacity, step, i, fifo.At(i), model[i].Val)
				}
			}
		}
	}
}

// TestServedCopySurvivesRecycling: a copy Get served must never change,
// however often the slot it was copied from is evicted, returned to the
// pool and refilled. Writers keep a two-slot ring rotating; readers
// hold copies across many rotations and re-check them. Under -race a
// backing array shared between a served copy and a pooled record is a
// reported race, not only a wrong value.
func TestServedCopySurvivesRecycling(t *testing.T) {
	k := newRecRing(2, nil)
	const (
		writers = 4
		rounds  = 2000
	)
	check := func(got rec) error {
		if got.Key != fmt.Sprintf("k%d", got.Val) || len(got.Tags) != 3 {
			return fmt.Errorf("foreign content: %+v", got)
		}
		for _, tag := range got.Tags {
			if tag != got.Val {
				return fmt.Errorf("foreign tags: %+v", got)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []rec
			for i := 0; i < rounds; i++ {
				val := w*rounds + i
				r := k.Begin()
				r.Key, r.Val = fmt.Sprintf("k%d", val), val
				r.Tags = append(r.Tags, val, val, val)
				k.Commit(r)
				if got, ok := k.Get(fmt.Sprintf("k%d", val)); ok {
					held = append(held, got)
				}
				if len(held) == 64 {
					for _, got := range held {
						if err := check(got); err != nil {
							errs <- err
							return
						}
					}
					held = held[:0]
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
