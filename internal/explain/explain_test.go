package explain

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/rbac"
)

func TestRecorderRoundtrip(t *testing.T) {
	rc := NewRecorder(8)
	rec := rc.Begin()
	teller := &core.MMERRule{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}
	rec.Rule(core.RuleEval{Policy: "P=!", Bound: bctx.MustParse("P=1"), Rule: "MMER[0]", MMER: teller,
		Roles: []rbac.RoleName{"Auditor", "Clerk", "Teller"}, K: 0, KAfter: 2, M: 2})
	rec.Rule(core.RuleEval{Policy: "P=!", Bound: bctx.MustParse("P=1"), Rule: "MMEP[0]",
		Privilege: rbac.Permission{Operation: "op", Object: "t"}, K: 1, KAfter: 1, M: 2, Denied: true})
	rc.Commit(rec, &Decision{RequestID: "req-1", User: "alice", Terminated: []string{"P=1"}})

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
	if rc.Len() != 1 || rc.Evicted() != 0 {
		t.Fatalf("len=%d evicted=%d", rc.Len(), rc.Evicted())
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

func TestRingEviction(t *testing.T) {
	const capacity = 4
	rc := NewRecorder(capacity)
	for i := 0; i < 10; i++ {
		rc.Commit(rc.Begin(), &Decision{RequestID: fmt.Sprintf("req-%d", i), User: fmt.Sprintf("user-%d", i)})
	}
	if rc.Len() != capacity {
		t.Fatalf("len = %d, want %d", rc.Len(), capacity)
	}
	if rc.Evicted() != 10-capacity {
		t.Fatalf("evicted = %d, want %d", rc.Evicted(), 10-capacity)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("req-%d", i)
		got, ok := rc.Get(id)
		if i < 10-capacity {
			if ok {
				t.Errorf("%s still retrievable after eviction", id)
			}
			continue
		}
		if !ok {
			t.Errorf("%s missing from ring", id)
		} else if got.User != fmt.Sprintf("user-%d", i) {
			t.Errorf("%s resolved to %q", id, got.User)
		}
	}
}

// TestPooledReuseNoLeakage drives many concurrent begin/fill/commit/get
// cycles through a small ring (constant eviction and pool reuse) and
// checks every retrieved record carries exactly the content its own
// request wrote — run under -race, this is the cross-request leakage
// proof for the pooling scheme.
func TestPooledReuseNoLeakage(t *testing.T) {
	rc := NewRecorder(8)
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
				if rec.RequestID != "" || len(rec.rules) != 0 || len(rec.Terminated) != 0 {
					errs <- fmt.Errorf("Begin returned a dirty entry: %+v", rec)
					return
				}
				nrules := w%3 + 1
				rule := &core.MMERRule{Roles: []rbac.RoleName{rbac.RoleName(id)}, Cardinality: 5}
				for r := 0; r < nrules; r++ {
					rec.Rule(core.RuleEval{Rule: fmt.Sprintf("%s-rule-%d", id, r), MMER: rule, Roles: rule.Roles, K: r, KAfter: r + 1, M: 5})
				}
				rc.Commit(rec, &Decision{RequestID: id, User: id})
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
	rc := NewRecorder(4)
	rec := rc.Begin()
	rec.Rule(core.RuleEval{Rule: "MMEP[0]", M: 2, Privilege: rbac.Permission{Operation: "prepareCheck", Object: "check"}})
	rc.Commit(rec, &Decision{RequestID: "req-1", Roles: []string{"Clerk"}, Terminated: []string{"P=1"}})

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

func TestDiscardReturnsCleanRecord(t *testing.T) {
	rc := NewRecorder(4)
	rec := rc.Begin()
	rec.RequestID = "doomed"
	rec.Rule(core.RuleEval{Rule: "MMEP[0]"})
	rc.Discard(rec)
	if _, ok := rc.Get("doomed"); ok {
		t.Fatal("discarded record is queryable")
	}
	fresh := rc.Begin()
	if fresh.RequestID != "" || len(fresh.rules) != 0 {
		t.Fatalf("Begin after Discard returned a dirty record: %+v", fresh)
	}
}

func TestDuplicateRequestIDNewestWins(t *testing.T) {
	rc := NewRecorder(2)
	for _, user := range []string{"first", "second"} {
		rc.Commit(rc.Begin(), &Decision{RequestID: "dup", User: user})
	}
	got, ok := rc.Get("dup")
	if !ok || got.User != "second" {
		t.Fatalf("got %+v ok=%v, want the newer commit", got, ok)
	}
	// Rotate both duplicates out; the identity check must not delete the
	// newer map entry while evicting the older ring slot prematurely.
	for i := 0; i < 2; i++ {
		rc.Commit(rc.Begin(), &Decision{RequestID: fmt.Sprintf("filler-%d", i)})
	}
	if _, ok := rc.Get("dup"); ok {
		t.Fatal("fully rotated duplicate still queryable")
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
