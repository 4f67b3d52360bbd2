package explain

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/obsv"
	"msod/internal/rbac"
)

func TestRecorderRoundtrip(t *testing.T) {
	rc := NewRing(8)
	rec := rc.Begin()
	teller := &core.MMERRule{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}
	rec.Rule(core.RuleEval{Policy: "P=!", Bound: bctx.MustParse("P=1"), Rule: "MMER[0]", MMER: teller,
		Roles: []rbac.RoleName{"Auditor", "Clerk", "Teller"}, K: 0, KAfter: 2, M: 2})
	rec.Rule(core.RuleEval{Policy: "P=!", Bound: bctx.MustParse("P=1"), Rule: "MMEP[0]",
		Privilege: rbac.Permission{Operation: "op", Object: "t"}, K: 1, KAfter: 1, M: 2, Denied: true})
	rc.Commit(rec, &Decision{RequestID: "req-1", User: "alice", Terminated: []bctx.Name{bctx.MustParse("P=1")}})

	got, ok := rc.Get("req-1")
	if !ok {
		t.Fatal("committed record not found")
	}
	if got.User != "alice" || len(got.Rules) != 2 || !reflect.DeepEqual(got.Terminated, []string{"P=1"}) {
		t.Fatalf("got %+v", got)
	}
	want := []RuleEval{
		{Policy: "P=!", Bound: "P=1", Rule: "MMER[0]", Kind: KindMMER, K: 0, KAfter: 2, M: 2, Matched: []string{"Teller", "Auditor"}},
		{Policy: "P=!", Bound: "P=1", Rule: "MMEP[0]", Kind: KindMMEP, K: 1, KAfter: 1, M: 2, Matched: []string{"op@t"}, Denied: true},
	}
	if !reflect.DeepEqual(got.Rules, want) {
		t.Fatalf("rules rendered as %+v, want %+v", got.Rules, want)
	}
	if got.Governing == nil || got.Governing.Rule != "MMEP[0]" || !got.Governing.Denied {
		t.Fatalf("governing = %+v, want the denying rule", got.Governing)
	}
	if _, ok := rc.Get("unknown"); ok {
		t.Fatal("lookup of unknown ID succeeded")
	}
	if explained, traced := rc.Retained(); explained != 1 || traced != 0 || rc.Evicted() != 0 {
		t.Fatalf("explained=%d traced=%d evicted=%d", explained, traced, rc.Evicted())
	}
}

func TestGoverningPicksTightestOnGrant(t *testing.T) {
	rec := &Record{Rules: []RuleEval{
		{Rule: "MMER[0]", K: 0, KAfter: 1, M: 4}, // 0.25
		{Rule: "MMEP[0]", K: 1, KAfter: 2, M: 3}, // 0.667 <- tightest
		{Rule: "MMEP[1]", K: 0, KAfter: 1, M: 2}, // 0.5
	}}
	rec.finalize()
	if rec.Governing == nil || rec.Governing.Rule != "MMEP[0]" {
		t.Fatalf("governing = %+v, want MMEP[0] (highest kAfter/m)", rec.Governing)
	}
	if rec.Governing.Denied {
		t.Fatal("grant's governing rule marked denied")
	}
}

func TestGoverningNilWithoutRules(t *testing.T) {
	rec := &Record{Governing: &RuleEval{Rule: "stale"}}
	rec.finalize()
	if rec.Governing != nil {
		t.Fatalf("governing = %+v, want nil when no constraint applied", rec.Governing)
	}
}

// TestRingEviction: each commit past the capacity evicts the oldest
// entry from both lookups; the newest entries stay under both keys.
func TestRingEviction(t *testing.T) {
	const capacity = 4
	rc := NewRing(capacity)
	for i := 0; i < 10; i++ {
		e := rc.Begin()
		e.Keep("refusal", make([]obsv.Span, i+1))
		rc.Commit(e, &Decision{RequestID: fmt.Sprintf("req-%d", i), TraceID: fmt.Sprintf("trace-%d", i), User: fmt.Sprintf("user-%d", i)})
	}
	if explained, traced := rc.Retained(); explained != capacity || traced != capacity || rc.fifo.Len() != capacity {
		t.Fatalf("explained=%d traced=%d held=%d, want %d", explained, traced, rc.fifo.Len(), capacity)
	}
	if rc.Evicted() != 10-capacity {
		t.Fatalf("evicted = %d, want %d", rc.Evicted(), 10-capacity)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("req-%d", i)
		got, ok := rc.Get(id)
		kept, traced := rc.Trace(fmt.Sprintf("trace-%d", i))
		spans := len(kept.Spans)
		if i < 10-capacity {
			if ok || traced {
				t.Errorf("%s still retrievable after eviction (explain %v, trace %v)", id, ok, traced)
			}
			continue
		}
		if !ok || !traced {
			t.Errorf("%s missing from ring (explain %v, trace %v)", id, ok, traced)
		} else if got.User != fmt.Sprintf("user-%d", i) || spans != i+1 {
			t.Errorf("%s resolved to %q with %d spans", id, got.User, spans)
		}
	}
}

// TestRingFilesByOutcome: an answered decision is filed under its
// request ID, one with a kept tree under its trace ID as well; an
// errored decision or an advisory only under its trace ID, and only
// with a kept tree. An entry filed under neither key goes back to the
// pool and holds no ring slot.
func TestRingFilesByOutcome(t *testing.T) {
	rc := NewRing(8)
	for _, tc := range []struct {
		d             Decision
		kept          bool
		explain, trac bool
	}{
		{Decision{RequestID: "grant", TraceID: "t-grant", Outcome: OutcomeGrant}, false, true, false},
		{Decision{RequestID: "deny", TraceID: "t-deny", Outcome: OutcomeDeny}, true, true, true},
		{Decision{RequestID: "error", TraceID: "t-error", Outcome: OutcomeError}, true, false, true},
		{Decision{RequestID: "error-dropped", TraceID: "t-error-dropped", Outcome: OutcomeError}, false, false, false},
		{Decision{TraceID: "t-advice", Outcome: OutcomeGrant, Advisory: true}, true, false, true},
		{Decision{TraceID: "t-advice-dropped", Outcome: OutcomeGrant, Advisory: true}, false, false, false},
	} {
		e := rc.Begin()
		if tc.kept {
			e.Keep("sampled", make([]obsv.Span, 2))
		}
		rc.Commit(e, &tc.d)
		_, explained := rc.Get(tc.d.RequestID)
		_, traced := rc.Trace(tc.d.TraceID)
		if explained != tc.explain || traced != tc.trac {
			t.Errorf("%+v kept=%v: explain %v trace %v, want %v %v", tc.d, tc.kept, explained, traced, tc.explain, tc.trac)
		}
	}
	if held := rc.fifo.Len(); held != 4 {
		t.Errorf("the ring holds %d entries, want the 4 filed under a key", held)
	}
}

// TestPooledReuseNoLeakage drives many concurrent begin/fill/commit/get
// cycles through a small ring (constant eviction and pool reuse) and
// checks every retrieved record carries exactly the content its own
// request wrote — run under -race, this is the cross-request leakage
// proof for the pooling scheme.
func TestPooledReuseNoLeakage(t *testing.T) {
	rc := NewRing(8)
	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-r%d", w, i)
				rec := rc.Begin()
				if rec.RequestID != "" || len(rec.rules) != 0 || len(rec.Terminated) != 0 || rec.SampledFor != "" || len(rec.Spans) != 0 {
					errs <- fmt.Errorf("Begin returned a dirty entry: %+v", rec)
					return
				}
				nrules := w%3 + 1
				rule := &core.MMERRule{Roles: []rbac.RoleName{rbac.RoleName(id)}, Cardinality: 5}
				for r := 0; r < nrules; r++ {
					rec.Rule(core.RuleEval{Rule: fmt.Sprintf("%s-rule-%d", id, r), MMER: rule, Roles: rule.Roles, K: r, KAfter: r + 1, M: 5})
				}
				if i%2 == 0 {
					rec.Keep(id, []obsv.Span{{Name: id}})
				}
				rc.Commit(rec, &Decision{RequestID: id, TraceID: id, User: id})
				if e, ok := rc.Trace(id); ok && (e.SampledFor != id || len(e.Spans) != 1 || e.Spans[0].Name != id) {
					errs <- fmt.Errorf("trace %s holds foreign spans: %s %+v", id, e.SampledFor, e.Spans)
					return
				}
				got, ok := rc.Get(id)
				if !ok {
					continue // evicted by concurrent commits: fine
				}
				if got.User != id || len(got.Rules) != nrules {
					errs <- fmt.Errorf("record %s holds foreign content: user=%q rules=%d (want %d)", id, got.User, len(got.Rules), nrules)
					return
				}
				for r, ev := range got.Rules {
					if want := fmt.Sprintf("%s-rule-%d", id, r); ev.Rule != want || len(ev.Matched) != 1 || ev.Matched[0] != id {
						errs <- fmt.Errorf("record %s rule %d leaked: %+v", id, r, ev)
						return
					}
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

func TestGetReturnsDeepCopy(t *testing.T) {
	rc := NewRing(4)
	rec := rc.Begin()
	rec.Rule(core.RuleEval{Rule: "MMEP[0]", M: 2, Privilege: rbac.Permission{Operation: "prepareCheck", Object: "check"}})
	rc.Commit(rec, &Decision{RequestID: "req-1", Roles: []rbac.RoleName{"Clerk"}, Terminated: []bctx.Name{bctx.MustParse("P=1")}})

	a, _ := rc.Get("req-1")
	a.Roles[0] = "CLOBBERED"
	a.Terminated[0] = "CLOBBERED"
	a.Rules[0].Matched[0] = "CLOBBERED"
	a.Rules[0].Rule = "CLOBBERED"
	a.Governing.Matched[0] = "CLOBBERED"

	b, _ := rc.Get("req-1")
	if b.Roles[0] != "Clerk" || b.Terminated[0] != "P=1" || b.Rules[0].Matched[0] != "prepareCheck@check" || b.Rules[0].Rule != "MMEP[0]" || b.Governing.Matched[0] != "prepareCheck@check" {
		t.Fatalf("mutating a served copy reached the retained record: %+v", b)
	}
}

// TestDiscardReturnsCleanRecord: an entry committed under neither key
// (an errored decision whose tree was not kept) is discarded: it is not
// queryable, and the pool hands it out again reset.
func TestDiscardReturnsCleanRecord(t *testing.T) {
	rc := NewRing(4)
	rec := rc.Begin()
	rec.Rule(core.RuleEval{Rule: "MMEP[0]"})
	rc.Commit(rec, &Decision{RequestID: "doomed", TraceID: "t-doomed", Outcome: OutcomeError})
	if _, ok := rc.Get("doomed"); ok {
		t.Fatal("discarded record is queryable")
	}
	if held := rc.fifo.Len(); held != 0 {
		t.Fatalf("the discarded record holds a ring slot (%d held)", held)
	}
	fresh := rc.Begin()
	if fresh.RequestID != "" || len(fresh.rules) != 0 || fresh.SampledFor != "" || len(fresh.Spans) != 0 {
		t.Fatalf("Begin after Discard returned a dirty record: %+v", fresh)
	}
}

// TestDuplicateRequestIDNewestWins: a request ID filed again is served
// from the newer entry, while the older entry's trace key resolves
// until the older entry is evicted; evicting it must not delete the
// newer entry's request key (the identity check).
func TestDuplicateRequestIDNewestWins(t *testing.T) {
	rc := NewRing(2)
	for _, user := range []string{"first", "second"} {
		e := rc.Begin()
		e.Keep("refusal", []obsv.Span{{Name: user}})
		rc.Commit(e, &Decision{RequestID: "dup", TraceID: "trace-" + user, User: user})
	}
	got, ok := rc.Get("dup")
	if !ok || got.User != "second" {
		t.Fatalf("got %+v ok=%v, want the newer commit", got, ok)
	}
	if e, ok := rc.Trace("trace-first"); !ok || e.User != "first" {
		t.Fatalf("the older entry's trace key resolves to %q (%v), want first", e.User, ok)
	}
	rc.Commit(rc.Begin(), &Decision{RequestID: "filler-0"})
	if _, ok := rc.Trace("trace-first"); ok {
		t.Fatal("evicted entry's trace key still resolves")
	}
	if got, ok := rc.Get("dup"); !ok || got.User != "second" {
		t.Fatalf("evicting the older duplicate took the newer one's key: %+v ok=%v", got, ok)
	}
	rc.Commit(rc.Begin(), &Decision{RequestID: "filler-1"})
	if _, ok := rc.Get("dup"); ok {
		t.Fatal("fully rotated duplicate still queryable")
	}
	if _, ok := rc.Trace("trace-second"); ok {
		t.Fatal("fully rotated duplicate's trace key still resolves")
	}
}

// TestNilSafety: a context without an entry hands the engine a nil
// sink, which it skips; one with an entry hands it that entry.
func TestNilSafety(t *testing.T) {
	if core.ExplainerFrom(context.Background()) != nil {
		t.Fatal("ExplainerFrom on a bare context returned a sink")
	}
	rec := &Entry{}
	if got := core.ExplainerFrom(context.WithValue(context.Background(), core.ExplainerKey, rec)); got != rec {
		t.Fatalf("ExplainerFrom = %v, want %p", got, rec)
	}
}
