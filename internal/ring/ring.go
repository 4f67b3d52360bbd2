// Package ring holds FIFO, the one fixed-capacity queue that overwrites
// its oldest element, under every bounded retention structure of the
// shard: the decision ring (explain.Ring), the event broker's replay
// ring, the idempotency cache's committed entries and the eviction
// order of the applied opens and closes. It imports nothing from this
// module, so any layer may use it.
package ring

// FIFO is a fixed-capacity first-in-first-out ring: once full, every
// Push overwrites the oldest element. The zero FIFO has capacity zero;
// build one with NewFIFO. Not safe for concurrent use — each owner
// already has a lock that covers more than the ring.
type FIFO[T any] struct {
	buf  []T
	head int // index of the oldest element
	size int
}

// NewFIFO returns a ring holding up to capacity (> 0) elements.
func NewFIFO[T any](capacity int) FIFO[T] {
	return FIFO[T]{buf: make([]T, capacity)}
}

// Push appends v. When the ring was full it takes the oldest element's
// slot, and that element is returned with evicted true.
func (f *FIFO[T]) Push(v T) (old T, evicted bool) {
	if f.size < len(f.buf) {
		f.buf[(f.head+f.size)%len(f.buf)] = v
		f.size++
		return old, false
	}
	old, f.buf[f.head] = f.buf[f.head], v
	f.head = (f.head + 1) % len(f.buf)
	return old, true
}

// At returns the i-th oldest element, 0 <= i < Len().
func (f *FIFO[T]) At(i int) T { return f.buf[(f.head+i)%len(f.buf)] }

// Len reports how many elements are held.
func (f *FIFO[T]) Len() int { return f.size }

// Cap reports the fixed capacity.
func (f *FIFO[T]) Cap() int { return len(f.buf) }
