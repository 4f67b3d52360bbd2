package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"msod/internal/server"
	"msod/internal/trace"
)

// cmdTrace fetches a tail-sampled decision's span tree and renders it
// as a waterfall (msodctl trace -server ... <traceID>): one line per
// span, indented under its parent, with a bar showing where in the
// decision's wall-clock window the span ran. Span names match the
// msod_stage_duration_seconds stage labels (cvs, rbac, msod, store,
// audit) plus the finer sub-spans (store.wal, audit.rotate,
// msod.policy:<ctx>). Against a gateway the query fans out to every
// shard and the merged tree carries per-span shard attribution.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	srv := fs.String("server", "http://127.0.0.1:8443", "PDP or gateway base URL")
	tid := fs.String("trace", "", "trace ID from a decision response, audit record, or metric exemplar")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline (0 disables)")
	jsonOut := fs.Bool("json", false, "print the raw JSON record")
	fs.Parse(args)
	if *tid == "" && fs.NArg() == 1 {
		*tid = fs.Arg(0)
	}
	if *tid == "" {
		return fmt.Errorf("trace: -trace <traceID> is required (a decision response's traceID field or a metric exemplar)")
	}
	client := server.NewClient(*srv, nil, server.WithTimeout(*timeout))
	rec, err := client.Trace(*tid)
	if err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(rec)
	}
	printTrace(rec)
	return nil
}

// barWidth is the character width of the waterfall's timeline column.
const barWidth = 32

// printTrace renders a sampled trace for humans: envelope first, then
// the span waterfall in execution order.
func printTrace(rec trace.Record) {
	fmt.Printf("%s user=%s op=%s target=%s ctx=%q\n",
		strings.ToUpper(rec.Outcome), rec.User, rec.Operation, rec.Target, rec.Context)
	fmt.Printf("  trace %s", rec.TraceID)
	if rec.RequestID != "" {
		fmt.Printf("  request %s", rec.RequestID)
	}
	if rec.Advisory {
		fmt.Printf("  (advisory)")
	}
	fmt.Println()
	fmt.Printf("  at %s (%.6fs)  sampled for: %s\n",
		rec.Time.Format(time.RFC3339Nano), rec.ElapsedSeconds, rec.SampledFor)
	if rec.Reason != "" {
		fmt.Printf("  reason: %s\n", rec.Reason)
	}
	if len(rec.Shards) > 0 {
		fmt.Printf("  shards: %s\n", strings.Join(rec.Shards, ", "))
	}
	if len(rec.Spans) == 0 {
		fmt.Println("  no spans recorded")
		return
	}

	spans := make([]trace.Span, len(rec.Spans))
	copy(spans, rec.Spans)
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].StartOffsetUS < spans[j].StartOffsetUS
	})

	// The timeline spans from the earliest start to the latest end so
	// every bar lands inside the column.
	minStart := spans[0].StartOffsetUS
	var maxEnd int64
	for _, sp := range spans {
		if end := sp.StartOffsetUS + int64(sp.DurationSeconds*1e6); end > maxEnd {
			maxEnd = end
		}
	}
	window := maxEnd - minStart
	if window <= 0 {
		window = 1
	}

	nameWidth := 0
	for _, sp := range spans {
		if w := 2*spanDepth(spans, sp) + len(sp.Name); w > nameWidth {
			nameWidth = w
		}
	}

	fmt.Printf("  spans (%d):\n", len(spans))
	for _, sp := range spans {
		indent := strings.Repeat("  ", spanDepth(spans, sp))
		label := indent + sp.Name
		fmt.Printf("    %-*s  %s  %10s", nameWidth, label,
			timelineBar(sp, minStart, window), formatSpanDuration(sp.DurationSeconds))
		if sp.Shard != "" {
			fmt.Printf("  [%s]", sp.Shard)
		}
		fmt.Println()
	}
}

// spanDepth computes how deep a span nests by walking its parent
// chain. Names can repeat across shards, so the walk is bounded by
// the span count to stay safe against accidental cycles.
func spanDepth(spans []trace.Span, sp trace.Span) int {
	byName := make(map[string]trace.Span, len(spans))
	for _, s := range spans {
		if _, ok := byName[s.Name]; !ok {
			byName[s.Name] = s
		}
	}
	depth := 0
	cur := sp
	for cur.Parent != "" && depth < len(spans) {
		next, ok := byName[cur.Parent]
		if !ok {
			break
		}
		depth++
		cur = next
	}
	return depth
}

// timelineBar renders a span's position in the decision's wall-clock
// window as a fixed-width bar: dots for idle time, '=' while the span
// ran. Every span gets at least one '=' so instantaneous spans stay
// visible.
func timelineBar(sp trace.Span, minStart, window int64) string {
	start := int((sp.StartOffsetUS - minStart) * barWidth / window)
	width := int(int64(sp.DurationSeconds*1e6) * barWidth / window)
	if width < 1 {
		width = 1
	}
	if start > barWidth-1 {
		start = barWidth - 1
	}
	if start+width > barWidth {
		width = barWidth - start
	}
	var b strings.Builder
	b.WriteString(strings.Repeat(".", start))
	b.WriteString(strings.Repeat("=", width))
	b.WriteString(strings.Repeat(".", barWidth-start-width))
	return b.String()
}

// formatSpanDuration renders a span duration at a scale fit for a
// decision pipeline (sub-millisecond to seconds).
func formatSpanDuration(seconds float64) string {
	d := time.Duration(seconds * float64(time.Second))
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
