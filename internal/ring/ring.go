// Package ring holds the bounded retention structures the telemetry
// layers share: FIFO, a fixed-capacity queue that overwrites its oldest
// element, and Keyed, a FIFO of pooled records looked up by a string key
// (the explain ring and the trace store). It imports nothing from this
// module, so any layer may use it.
package ring

import "sync"

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

// Keyed retains the most recent committed records in a FIFO, served by
// key as a view V of the record, and hands out pooled records for the
// hot path: Begin takes a record from the pool, the caller fills it,
// Commit files it, and the record a commit evicts returns to the pool
// for reuse. Safe for concurrent use; a record handed out by Begin must
// not be shared across goroutines until committed.
type Keyed[R, V any] struct {
	key   func(*R) string
	reset func(*R)
	view  func(*R) V
	evict func(*R)

	mu      sync.Mutex
	fifo    FIFO[*R]
	byKey   map[string]*R
	evicted int64
	pool    sync.Pool
}

// NewKeyed returns a ring retaining up to capacity (> 0) records. key
// reads the key a record is filed under; reset clears a record for
// reuse (keeping whatever backing arrays it wants to keep); view makes
// what Get serves, sharing nothing with the record (a deep copy, or a
// rendering). evict, when non-nil, sees each record as it rotates out,
// under the ring's lock, before the record is recycled.
func NewKeyed[R, V any](capacity int, key func(*R) string, reset func(*R), view func(*R) V, evict func(*R)) *Keyed[R, V] {
	return &Keyed[R, V]{
		key: key, reset: reset, view: view, evict: evict,
		fifo:  NewFIFO[*R](capacity),
		byKey: make(map[string]*R, capacity),
		pool:  sync.Pool{New: func() any { return new(R) }},
	}
}

// Begin returns a reset record from the pool. Every Begin must be
// balanced by exactly one Commit or Discard.
func (k *Keyed[R, V]) Begin() *R {
	rec := k.pool.Get().(*R)
	k.reset(rec)
	return rec
}

// Discard returns an uncommitted record to the pool.
func (k *Keyed[R, V]) Discard(rec *R) {
	if rec != nil {
		k.pool.Put(rec)
	}
}

// Commit files the record under its key. The caller must not touch the
// record afterwards: once filed it may be served, evicted and reused at
// any time. Committing a duplicate key retains both slots, but the
// newer record wins lookups.
func (k *Keyed[R, V]) Commit(rec *R) {
	if rec == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if old, evicted := k.fifo.Push(rec); evicted {
		// Identity check: a duplicate commit under the same key may have
		// replaced the map entry already; only drop it if it is still
		// this record.
		if id := k.key(old); k.byKey[id] == old {
			delete(k.byKey, id)
		}
		if k.evict != nil {
			k.evict(old)
		}
		k.evicted++
		k.pool.Put(old)
	}
	k.byKey[k.key(rec)] = rec
}

// Get returns the view of the record retained under key, made under
// the ring's lock. The view shares nothing with the pooled record, so
// it stays valid (and race-free) after the original rotates out and is
// reused.
func (k *Keyed[R, V]) Get(key string) (V, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	rec, ok := k.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	return k.view(rec), true
}

// Len reports how many records are currently retained.
func (k *Keyed[R, V]) Len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.fifo.Len()
}

// Capacity reports the ring size.
func (k *Keyed[R, V]) Capacity() int { return k.fifo.Cap() }

// Evicted reports how many committed records have rotated out since
// the ring was built.
func (k *Keyed[R, V]) Evicted() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.evicted
}
