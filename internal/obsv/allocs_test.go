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
		StartSpan(ctx, SpanStoreWAL).End()
		store.End()
		msod.End()
		StartSpan(ctx, StageAudit).End()
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
			// The Trace, spans and open-span stack inside it (1). The
			// context value that carries it is the caller's (1): the
			// server pays the same one to hand the trace to the PDP.
			name: "seven-span decision",
			run: func() {
				tr := NewTrace(id)
				decision(WithTrace(base, tr))
				if len(tr.Spans()) != 7 {
					t.Fatalf("recorded %d spans, want 7", len(tr.Spans()))
				}
			},
			budget: 2,
		},
		{
			// Past inlineSpans the completed spans grow as any slice
			// does: the 9th span moves them to a 16-span array (1). Five
			// root spans more never have two open at once, so the open
			// stack stays inline. Plus the Trace (1) and the context (1).
			name: "twelve-span decision",
			run: func() {
				tr := NewTrace(id)
				ctx := WithTrace(base, tr)
				decision(ctx)
				for i := 0; i < 5; i++ {
					StartSpan(ctx, "msod.policy:more").End()
				}
				if len(tr.Spans()) != 12 {
					t.Fatalf("recorded %d spans, want 12", len(tr.Spans()))
				}
			},
			budget: 3,
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
