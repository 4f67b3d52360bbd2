package obsv

import (
	"context"
	"testing"
	"time"

	"msod/internal/race"
)

// TestTraceAllocs holds tracing to the rule of the decision path: an
// allocation is something the decision sends, logs or retains. Budgets
// are exact; a change that moves one edits the table and names the
// allocation.
func TestTraceAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	// The spans of a durable one-policy decision, in start order, with
	// their nesting: store.wal inside store inside msod.
	decision := func(ctx context.Context) {
		StartSpan(ctx, StageCVS).End()
		StartSpan(ctx, StageRBAC).End()
		msod := StartSpan(ctx, StageMSoD)
		StartSpan(ctx, "msod.policy:bank").End()
		store := StartSpan(ctx, StageStore)
		StartSpan(ctx, "store.wal").End()
		store.End()
		msod.End()
		StartSpan(ctx, StageAudit).End()
	}
	// recorded counts a trace's spans into a buffer on the stack.
	recorded := func(tr *Trace) int {
		var buf [2 * inlineSpans]Span
		return len(tr.AppendSpans(buf[:0]))
	}
	id := NewTraceID()
	base := context.Background()
	hist := NewHistogram(DefaultDurationBuckets)

	for _, tc := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{
			// One value that is the context and holds the Trace, its
			// spans and their bookkeeping inline (1), as the shard's
			// per-decision context is. It was 2 while the Trace was a
			// value of its own and WithTrace's context carried it, as
			// the next row still is.
			name: "seven-span decision",
			run: func() {
				ctx := &tracedCtx{Context: base}
				ctx.tr.Init(id)
				decision(ctx)
				if n := recorded(&ctx.tr); n != 7 {
					t.Fatalf("recorded %d spans, want 7", n)
				}
			},
			budget: 1,
		},
		{
			// The Trace (1) and the context carrying it (1).
			name: "seven-span decision under WithTrace",
			run: func() {
				tr := NewTrace(id)
				decision(WithTrace(base, tr))
				if n := recorded(tr); n != 7 {
					t.Fatalf("recorded %d spans, want 7", n)
				}
			},
			budget: 2,
		},
		{
			// Past inlineSpans the trace spills: the ninth span to start
			// moves its bookkeeping to one value with room for 16 spans
			// (1), as the completed spans' growth to a 16-span array
			// was. Plus the one value (1).
			name: "twelve-span decision",
			run: func() {
				ctx := &tracedCtx{Context: base}
				ctx.tr.Init(id)
				decision(ctx)
				for i := 0; i < 5; i++ {
					StartSpan(ctx, "msod.policy:more").End()
				}
				if n := recorded(&ctx.tr); n != 12 {
					t.Fatalf("recorded %d spans, want 12", n)
				}
			},
			budget: 2,
		},
		{
			// No trace in the context: one lookup, the zero SpanEnd.
			name:   "untraced decision",
			run:    func() { decision(base) },
			budget: 0,
		},
		{
			// The ID string returned (1): the random bytes and their hex
			// text stay on the stack.
			name:   "NewTraceID",
			run:    func() { _ = NewTraceID() },
			budget: 1,
		},
		{
			// The header value returned (1), whose substring is the trace
			// ID: a gateway pays it once per decision a PEP sent without
			// a traceparent.
			name:   "NewTraceparent",
			run:    func() { _ = NewTraceparent() },
			budget: 1,
		},
		{
			// Nothing: the caller's buffer has the room. The shard mints
			// a trace ID this way into the one string a request's text
			// is decoded into.
			name: "AppendTraceID",
			run: func() {
				var b [32]byte
				_ = AppendTraceID(b[:0])
			},
			budget: 0,
		},
		{
			// The header value returned (1): a client pays it per call
			// whose context carries a trace.
			name:   "Traceparent",
			run:    func() { _ = id.Traceparent() },
			budget: 1,
		},
		{
			// The bucket's exemplar is written in place: the trace ID is
			// the caller's string. It was 1 while every observation
			// stored a new Exemplar behind an atomic pointer.
			name:   "ObserveExemplar",
			run:    func() { hist.ObserveExemplar(30*time.Microsecond, string(id)) },
			budget: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(200, tc.run); got != tc.budget {
				t.Fatalf("%s: %v allocs, budget %v", tc.name, got, tc.budget)
			}
		})
	}
}

// tracedCtx is a context that carries a trace inline, as the shard's
// per-decision context does.
type tracedCtx struct {
	context.Context
	tr Trace
}

func (c *tracedCtx) Value(key any) any {
	if key == TraceKey {
		return &c.tr
	}
	return c.Context.Value(key)
}
