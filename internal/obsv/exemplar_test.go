package obsv

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObserveExemplarRetained(t *testing.T) {
	h := NewHistogram(DefaultDurationBuckets)
	h.ObserveExemplar(30*time.Microsecond, "trace-a") // bucket le="5e-05" is index 2
	ex, ok := h.BucketExemplar(2)
	if !ok || ex.TraceID != "trace-a" {
		t.Fatalf("exemplar = %+v ok=%v, want trace-a retained in bucket 2", ex, ok)
	}
	if ex.Value != (30 * time.Microsecond).Seconds() {
		t.Fatalf("exemplar value = %v", ex.Value)
	}
	// A later traced observation in the same bucket replaces it.
	h.ObserveExemplar(40*time.Microsecond, "trace-b")
	if ex, _ := h.BucketExemplar(2); ex.TraceID != "trace-b" {
		t.Fatalf("exemplar = %+v, want most-recent trace-b", ex)
	}
	// An untraced observation counts but leaves the exemplar alone.
	h.ObserveExemplar(45*time.Microsecond, "")
	if ex, _ := h.BucketExemplar(2); ex.TraceID != "trace-b" {
		t.Fatalf("untraced observation clobbered the exemplar: %+v", ex)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if _, ok := h.BucketExemplar(99); ok {
		t.Fatal("out-of-range bucket returned an exemplar")
	}
}

// TestObserveExemplarConcurrent: writers racing into one bucket while a
// reader scrapes it never leave a torn exemplar behind. Every exemplar
// read back, through BucketExemplar or the exposition, is a (trace ID,
// value) pair one writer stored.
func TestObserveExemplarConcurrent(t *testing.T) {
	const writers, each = 8, 500
	h := NewHistogram(DefaultDurationBuckets)
	// Writer w's k-th observation is (w*each+k+1) ns under the trace ID
	// naming that value, all of them in the first bucket.
	ids := make([]string, writers*each+1)
	for ns := 1; ns < len(ids); ns++ {
		ids[ns] = fmt.Sprintf("%032x", ns)
	}
	stored := func(e Exemplar) bool {
		ns := int(math.Round(e.Value * 1e9))
		return ns >= 1 && ns < len(ids) && e.TraceID == ids[ns]
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				ns := w*each + k + 1
				h.ObserveExemplar(time.Duration(ns), ids[ns])
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	read := 0 // exemplars read back through the exposition
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if e, ok := h.BucketExemplar(0); ok && !stored(e) {
			t.Fatalf("BucketExemplar read %+v, which no writer stored", e)
		}
		var om strings.Builder
		h.WriteExposition(&om, "msod_test_seconds", "t", true)
		for _, line := range strings.Split(om.String(), "\n") {
			s, ok := ParseSeries(line)
			if !ok || s.Exemplar == "" {
				continue
			}
			var e Exemplar
			if _, err := fmt.Sscanf(s.Exemplar, "{trace_id=%q} %g", &e.TraceID, &e.Value); err != nil || !stored(e) {
				t.Fatalf("the exposition carries exemplar %q, which no writer stored (%v)", s.Exemplar, err)
			}
			read++
		}
	}
	if read == 0 {
		t.Fatal("no scrape read an exemplar back")
	}
	if h.Count() != writers*each {
		t.Fatalf("count = %d, want %d", h.Count(), writers*each)
	}
	if e, ok := h.BucketExemplar(0); !ok || !stored(e) {
		t.Fatalf("after the writers: exemplar %+v ok=%v", e, ok)
	}
}

// TestWriteExpositionDialects pins the negotiation contract: the
// OpenMetrics dialect carries exemplar suffixes on the buckets that
// retain one, the classic dialect never does, and both parse.
func TestWriteExpositionDialects(t *testing.T) {
	h := NewHistogram(DefaultDurationBuckets)
	h.ObserveExemplar(30*time.Microsecond, "0123456789abcdef")
	h.Observe(2 * time.Millisecond)

	var classic strings.Builder
	h.WriteExposition(&classic, "msod_test_seconds", "t", false)
	if strings.Contains(classic.String(), "# {") {
		t.Fatalf("classic dialect leaked an exemplar:\n%s", classic.String())
	}
	parseExposition(t, classic.String())

	var om strings.Builder
	h.WriteExposition(&om, "msod_test_seconds", "t", true)
	want := `le="5e-05"} 1 # {trace_id="0123456789abcdef"} 3e-05`
	if !strings.Contains(om.String(), want) {
		t.Fatalf("OpenMetrics dialect missing exemplar %q:\n%s", want, om.String())
	}
	// Buckets without a retained exemplar stay bare.
	if strings.Contains(om.String(), `le="1e-05"} 0 #`) {
		t.Fatalf("empty bucket carries an exemplar:\n%s", om.String())
	}
	// The parser must still accept every line, splitting exemplars off.
	samples, _ := parseExposition(t, om.String())
	if got := samples[`msod_test_seconds_bucket{le="5e-05"}`]; got != 1 {
		t.Fatalf("bucket value through exemplar-bearing line = %v, want 1", got)
	}
}

func TestParseSeriesExemplarRoundTrip(t *testing.T) {
	line := `msod_decision_duration_seconds_bucket{le="0.005"} 12 # {trace_id="abc"} 0.0042`
	s, ok := ParseSeries(line)
	if !ok {
		t.Fatalf("line did not parse: %q", line)
	}
	if s.Name != "msod_decision_duration_seconds_bucket" || s.Value != 12 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Exemplar != `{trace_id="abc"} 0.0042` {
		t.Fatalf("exemplar = %q", s.Exemplar)
	}
	// The gateway relabels shard series and re-emits them; the exemplar
	// must survive both steps so cluster scrapes keep trace links.
	out := s.WithLabel("shard", "a").String()
	want := `msod_decision_duration_seconds_bucket{le="0.005",shard="a"} 12 # {trace_id="abc"} 0.0042`
	if out != want {
		t.Fatalf("round trip = %q, want %q", out, want)
	}
}

func TestWantOpenMetrics(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"text/plain", false},
		{"application/openmetrics-text", true},
		{"application/openmetrics-text; version=1.0.0; charset=utf-8", true},
		{"text/plain;q=0.5, application/openmetrics-text;q=0.9", true},
	}
	for _, c := range cases {
		if got := WantOpenMetrics(c.accept); got != c.want {
			t.Errorf("WantOpenMetrics(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
	var buf strings.Builder
	WriteOpenMetricsEOF(&buf)
	if buf.String() != "# EOF\n" {
		t.Fatalf("EOF marker = %q", buf.String())
	}
}
