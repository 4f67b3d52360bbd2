package ring

import (
	"math/rand"
	"testing"
)

// TestFIFOAgainstModel pushes into rings of capacity 1..8 and holds
// each to a model: a slice of the pushed values, oldest first, cut to
// the capacity. Every push that cuts the model must evict exactly the
// value the model drops, and At must read the model element by
// element.
func TestFIFOAgainstModel(t *testing.T) {
	for capacity := 1; capacity <= 8; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		fifo := NewFIFO[int](capacity)
		var model []int
		for step := 0; step < 1000; step++ {
			v := rng.Int()
			model = append(model, v)
			var out []int
			if len(model) > capacity {
				out, model = model[:1], model[1:]
			}
			if old, evicted := fifo.Push(v); evicted != (out != nil) || evicted && old != out[0] {
				t.Fatalf("cap %d step %d: evicted %d (%v), model evicted %v", capacity, step, old, evicted, out)
			}
			if fifo.Len() != len(model) || fifo.Cap() != capacity {
				t.Fatalf("cap %d step %d: len %d cap %d, model len %d", capacity, step, fifo.Len(), fifo.Cap(), len(model))
			}
			for i := range model {
				if fifo.At(i) != model[i] {
					t.Fatalf("cap %d step %d: At(%d) = %d, model %d", capacity, step, i, fifo.At(i), model[i])
				}
			}
		}
	}
}
