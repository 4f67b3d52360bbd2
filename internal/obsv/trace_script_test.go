package obsv

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// refTrace is the span bookkeeping as it was before spans moved inline
// and StartSpan returned a value: heap slices and one closure per span.
// The script tests below hold Trace to it span for span.
type refTrace struct {
	mu     sync.Mutex
	spans  []Span
	active []string
}

func (t *refTrace) StartSpan(name string) func() {
	t.mu.Lock()
	parent := ""
	if n := len(t.active); n > 0 {
		parent = t.active[n-1]
	}
	t.active = append(t.active, name)
	t.mu.Unlock()
	start := time.Now()
	return func() {
		d := time.Since(start)
		t.mu.Lock()
		for i := len(t.active) - 1; i >= 0; i-- {
			if t.active[i] == name {
				t.active = append(t.active[:i], t.active[i+1:]...)
				break
			}
		}
		t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: start, Duration: d})
		t.mu.Unlock()
	}
}

// spanScript is a recorded sequence of start and end events. Step k
// either starts a span (end < 0) or ends the end-th span started, which
// is open at that point; every span is ended by the last step.
type spanScript []spanStep

type spanStep struct {
	name string
	end  int
}

// Generate implements quick.Generator: up to 40 spans — five times the
// inline capacity — named from a set small enough that same-name spans
// nest, ended in any order (not only innermost first).
func (spanScript) Generate(r *rand.Rand, _ int) reflect.Value {
	names := []string{StageCVS, StageRBAC, StageMSoD, StageStore, "msod.policy:a", "msod.policy:b"}
	var script spanScript
	var open []int
	started := 0
	for n := r.Intn(41); started < n || len(open) > 0; {
		if started < n && (len(open) == 0 || r.Intn(2) == 0) {
			script = append(script, spanStep{name: names[r.Intn(len(names))], end: -1})
			open = append(open, started)
			started++
			continue
		}
		k := r.Intn(len(open))
		script = append(script, spanStep{end: open[k]})
		open = append(open[:k], open[k+1:]...)
	}
	return reflect.ValueOf(script)
}

// shape is what a script determines of a trace: names, parents, order.
func shape(spans []Span) [][2]string {
	out := make([][2]string, len(spans))
	for i, s := range spans {
		out[i] = [2]string{s.Name, s.Parent}
	}
	return out
}

// run replays the script into both implementations. endOn runs each
// End: inline, or handed to another goroutine and waited for.
func (script spanScript) run(endOn func(end func())) (got, want [][2]string) {
	tr := NewTrace(NewTraceID())
	ref := &refTrace{}
	var ends []SpanEnd
	var refEnds []func()
	for _, step := range script {
		if step.end < 0 {
			ends = append(ends, tr.StartSpan(step.name))
			refEnds = append(refEnds, ref.StartSpan(step.name))
			continue
		}
		endOn(ends[step.end].End)
		refEnds[step.end]()
	}
	return shape(tr.Spans()), shape(ref.spans)
}

// TestTraceMatchesReferenceOnScripts: on any script — more spans than
// the inline capacity, nested same-name spans, ends out of order — a
// Trace reports the spans the closure-based implementation did, in the
// same order with the same parents.
func TestTraceMatchesReferenceOnScripts(t *testing.T) {
	inline := func(end func()) { end() }
	if err := quick.Check(func(script spanScript) bool {
		got, want := script.run(inline)
		if !reflect.DeepEqual(got, want) {
			t.Logf("script %v:\n got %v\nwant %v", script, got, want)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// The shapes the issue names, spelled out.
	for _, script := range []spanScript{
		// Nested same-name spans: the inner one ends first.
		{{StageMSoD, -1}, {StageMSoD, -1}, {"", 1}, {StageStore, -1}, {"", 2}, {"", 0}},
		// Nine open at once: both inline arrays overflow.
		{{"a", -1}, {"b", -1}, {"c", -1}, {"d", -1}, {"e", -1}, {"f", -1}, {"g", -1}, {"h", -1}, {"i", -1},
			{"", 8}, {"", 0}, {"", 7}, {"", 1}, {"", 6}, {"", 2}, {"", 5}, {"", 3}, {"", 4}},
	} {
		if got, want := script.run(inline); !reflect.DeepEqual(got, want) {
			t.Fatalf("script %v:\n got %v\nwant %v", script, got, want)
		}
	}
}

// TestTraceEndFromOtherGoroutines: a SpanEnd is a value and may be
// ended wherever it is carried. Each End runs on a goroutine of its own
// (one at a time, so the order stays the script's); under -race this is
// the check that End and Spans synchronise on the trace's lock alone.
func TestTraceEndFromOtherGoroutines(t *testing.T) {
	elsewhere := func(end func()) {
		done := make(chan struct{})
		go func() { defer close(done); end() }()
		<-done
	}
	if err := quick.Check(func(script spanScript) bool {
		got, want := script.run(elsewhere)
		return reflect.DeepEqual(got, want)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}

	// All at once: 3×inlineSpans spans started here, ended concurrently
	// while a reader iterates views of the spans. The completion order
	// is the scheduler's; the set of (name, parent) pairs is not.
	tr := NewTrace(NewTraceID())
	root := tr.StartSpan("root")
	var ends []SpanEnd
	for i := 0; i < 3*inlineSpans; i++ {
		ends = append(ends, tr.StartSpan("leaf"))
	}
	var wg sync.WaitGroup
	for _, e := range ends {
		wg.Add(1)
		go func(e SpanEnd) { defer wg.Done(); e.End() }(e)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for _, s := range tr.Spans() {
				if s.Name != "leaf" {
					t.Errorf("view holds %+v while only leaves have ended", s)
				}
			}
		}
	}()
	wg.Wait()
	root.End()
	spans := tr.Spans()
	if len(spans) != len(ends)+1 || spans[len(spans)-1].Name != "root" {
		t.Fatalf("%d spans, last %+v; want %d ending in root", len(spans), spans[len(spans)-1], len(ends)+1)
	}
	// The first leaf started under root, each later one under the leaf
	// before it (all were still open).
	underRoot := 0
	for _, s := range spans[:len(spans)-1] {
		if s.Parent == "root" {
			underRoot++
		} else if s.Parent != "leaf" {
			t.Fatalf("leaf with parent %q", s.Parent)
		}
	}
	if underRoot != 1 {
		t.Fatalf("%d leaves directly under root, want 1", underRoot)
	}
}
