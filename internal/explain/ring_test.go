package explain

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"msod/internal/bctx"
	"msod/internal/obsv"
	"msod/internal/rbac"
)

// filed is what the model of TestRingAgainstModel keeps of a commit
// the ring files: its keys, which lookups find it, and what they read.
type filed struct {
	requestID, traceID string
	answered, traced   bool
	user               string
	spans              int
}

// TestRingAgainstModel drives random Begin/Commit/Discard and lookups
// by both keys, with keys drawn from alphabets small enough that
// duplicates and lookups of evicted keys are common, through rings of
// capacity 1..8 and a model: a slice of the filed entries, oldest
// first, cut to the capacity. An answered decision is filed under its
// request ID, one holding spans under its trace ID; one that is
// neither is not filed at all. The model's answer for a key is the
// newest retained entry filed under it.
func TestRingAgainstModel(t *testing.T) {
	outcomes := []string{OutcomeGrant, OutcomeDeny, OutcomeError}
	for capacity := 1; capacity <= 8; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		rc := NewRing(capacity)
		var model []filed
		modelEvicted := 0
		key := func(prefix string) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(capacity+3)) }
		newest := func(match func(filed) bool) *filed {
			for i := len(model) - 1; i >= 0; i-- {
				if match(model[i]) {
					return &model[i]
				}
			}
			return nil
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // commit
				e := rc.Begin()
				if e.RequestID != "" || e.SampledFor != "" || len(e.Spans) != 0 || len(e.rules) != 0 {
					t.Fatalf("cap %d step %d: Begin returned a dirty entry %+v", capacity, step, *e)
				}
				d := Decision{RequestID: key("r"), TraceID: key("t"), User: fmt.Sprint(step), Outcome: outcomes[rng.Intn(len(outcomes))]}
				if rng.Intn(4) == 0 {
					d.RequestID, d.Advisory = "", true
				}
				f := filed{requestID: d.RequestID, traceID: d.TraceID, user: d.User,
					answered: d.RequestID != "" && d.Outcome != OutcomeError}
				if f.traced = rng.Intn(2) == 0; f.traced {
					f.spans = 1 + rng.Intn(3)
					e.Keep("kept-"+d.Outcome, make([]obsv.Span, f.spans))
				}
				rc.Commit(e, &d)
				if f.answered || f.traced {
					if model = append(model, f); len(model) > capacity {
						model = model[1:]
						modelEvicted++
					}
				}
			case op < 6: // an error without a kept tree: never visible
				rc.Commit(rc.Begin(), &Decision{RequestID: key("r"), TraceID: key("t"), Outcome: OutcomeError})
			case op < 8: // lookup by request ID
				id := key("r")
				want := newest(func(f filed) bool { return f.answered && f.requestID == id })
				got, ok := rc.Get(id)
				if ok != (want != nil) || ok && (got.User != want.user || got.RequestID != id) {
					t.Fatalf("cap %d step %d: Get(%s) = %+v %v, model %+v", capacity, step, id, got, ok, want)
				}
			default: // lookup by trace ID
				id := key("t")
				want := newest(func(f filed) bool { return f.traced && f.traceID == id })
				e, ok := rc.Trace(id)
				user, spans := e.User, len(e.Spans)
				if ok != (want != nil) || ok && (user != want.user || spans != want.spans) {
					t.Fatalf("cap %d step %d: Trace(%s) = %s/%d %v, model %+v", capacity, step, id, user, spans, ok, want)
				}
			}
			explained, traced := map[string]bool{}, map[string]bool{}
			for _, f := range model {
				if f.answered {
					explained[f.requestID] = true
				}
				if f.traced {
					traced[f.traceID] = true
				}
			}
			gotExplained, gotTraced := rc.Retained()
			if rc.fifo.Len() != len(model) || rc.fifo.Cap() != capacity || rc.Evicted() != int64(modelEvicted) ||
				gotExplained != len(explained) || gotTraced != len(traced) {
				t.Fatalf("cap %d step %d: held %d cap %d evicted %d explained %d traced %d; model %d evicted %d explained %d traced %d",
					capacity, step, rc.fifo.Len(), rc.fifo.Cap(), rc.Evicted(), gotExplained, gotTraced,
					len(model), modelEvicted, len(explained), len(traced))
			}
		}
	}
}

// TestServedCopySurvivesRecycling: a record Get served must never
// change, however often the entry it was rendered from is evicted,
// returned to the pool and refilled. Writers keep a two-slot ring
// rotating; readers hold records across many rotations and re-check
// them. Under -race a backing array shared between a served record and
// a pooled entry is a reported race, not only a wrong value.
func TestServedCopySurvivesRecycling(t *testing.T) {
	rc := NewRing(2)
	const (
		writers = 4
		rounds  = 2000
	)
	check := func(got Record) error {
		if got.RequestID != "k"+got.User || len(got.Roles) != 3 || len(got.Terminated) != 1 {
			return fmt.Errorf("foreign content: %+v", got)
		}
		for _, role := range got.Roles {
			if role != got.User {
				return fmt.Errorf("foreign slices: %+v", got)
			}
		}
		if got.Terminated[0] != "P="+got.User {
			return fmt.Errorf("foreign slices: %+v", got)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []Record
			for i := 0; i < rounds; i++ {
				val := fmt.Sprint(w*rounds + i)
				e := rc.Begin()
				e.Keep("sampled", []obsv.Span{{Name: val}})
				rc.Commit(e, &Decision{RequestID: "k" + val, TraceID: "k" + val, User: val,
					Roles: []rbac.RoleName{rbac.RoleName(val), rbac.RoleName(val), rbac.RoleName(val)}, Terminated: []bctx.Name{bctx.MustParse("P=" + val)}})
				if got, ok := rc.Get("k" + val); ok {
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
