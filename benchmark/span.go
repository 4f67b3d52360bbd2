package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names a boundary the benchmark can interpose on from outside
// the program. Spans are recorded only by the benchmark's own wrappers
// (wrap.go); nothing inside internal/ is instrumented for them.
type layer uint8

const (
	layerClient           layer = iota // root: one client call, encode to decoded verdict
	layerClientHop                     // client -> front door RoundTrip
	layerGateway                       // http.Handler around cluster.Gateway
	layerHop                           // gateway -> shard RoundTrip, decision path
	layerHopActivation                 // gateway -> shard RoundTrip, activation POST
	layerServer                        // http.Handler around server.Server, decision path
	layerServerActivation              // same handler, activation POST
	layerADIRead                       // adi.Recorder query methods
	layerADIAppend                     // adi.Recorder Append/AppendCtx
	layerADIPurge                      // adi.Recorder PurgeContext
	layerWALWrite                      // fsx.File Write on wal.log
	layerWALSync                       // fsx.File Sync on wal.log
	layerTrailWrite                    // fsx.File Write on a trail segment
	layerTrailSync                     // fsx.File Sync on a trail segment
	numLayers
)

var layerNames = [numLayers]string{
	"client", "client.hop", "cluster.gateway", "cluster.hop", "cluster.hop.activation",
	"server.handler", "server.handler.activation", "adi.read", "adi.append", "adi.purge",
	"adi.wal.write", "adi.wal.sync", "audit.trail.write", "audit.trail.sync",
}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. The traced slice runs one client, so every
// span recorded while request req is in flight belongs to it.
type span struct {
	req        uint32
	layer      layer
	start, end int64
}

// tracer keeps spans in memory until the run ends. When off, begin
// costs one atomic load and nothing is stored.
type tracer struct {
	on    atomic.Bool
	req   atomic.Uint32
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanStart is what begin hands to end. The request number is taken at
// the start: a shard handler may return after the next request has
// already begun.
type spanStart struct {
	at  int64
	req uint32
}

// begin opens a span; when tracing is off the result makes end a no-op.
func (t *tracer) begin() spanStart {
	if !t.on.Load() {
		return spanStart{at: -1}
	}
	return spanStart{at: int64(time.Since(t.epoch)), req: t.req.Load()}
}

// end records the span opened by begin.
func (t *tracer) end(l layer, from spanStart) {
	if from.at < 0 {
		return
	}
	s := span{req: from.req, layer: l, start: from.at, end: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes attributes the root span's duration to layers. Every instant
// of the root belongs to the innermost span in flight at that instant:
// the one that started last (the deeper layer on a tie). For a span
// with sequential children that is its duration minus the part its
// children cover; where fan-out siblings overlap, the overlap is
// counted once, so the self times always sum to the root. Spans are
// clamped to the root first — a shard handler can return a moment after
// the client has read its answer. covered[l] is the union of layer l's
// spans, children included. The spans must belong to one request and
// contain exactly one layerClient span; ok is false otherwise.
func selfTimes(spans []span) (self, covered [numLayers]int64, calls [numLayers]int, root int64, ok bool) {
	rootIdx := -1
	for i, s := range spans {
		if s.layer == layerClient {
			if rootIdx >= 0 {
				return self, covered, calls, 0, false
			}
			rootIdx = i
		}
	}
	if rootIdx < 0 {
		return self, covered, calls, 0, false
	}
	r := spans[rootIdx]
	root = r.end - r.start
	clamped := make([]span, 0, len(spans))
	edges := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		s.start, s.end = max(s.start, r.start), min(s.end, r.end)
		if s.end < s.start {
			continue // entirely outside the root
		}
		clamped = append(clamped, s)
		edges = append(edges, s.start, s.end)
		calls[s.layer]++
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	for i := 1; i < len(edges); i++ {
		from, to := edges[i-1], edges[i]
		if from == to {
			continue
		}
		inner := -1
		for k, s := range clamped {
			if s.start > from || s.end < to {
				continue
			}
			if inner < 0 || s.start > clamped[inner].start ||
				(s.start == clamped[inner].start && s.layer > clamped[inner].layer) {
				inner = k
			}
		}
		self[clamped[inner].layer] += to - from
	}
	sort.Slice(clamped, func(i, j int) bool { return clamped[i].start < clamped[j].start })
	for l := layer(0); l < numLayers; l++ {
		covered[l] = unionLength(clamped, l)
	}
	return self, covered, calls, root, true
}

// unionLength is the total time covered by the spans of one layer;
// spans must be sorted by start.
func unionLength(sorted []span, l layer) int64 {
	var total, to int64
	first := true
	for _, s := range sorted {
		if s.layer != l {
			continue
		}
		if first || s.start > to {
			total += s.end - s.start
			to, first = s.end, false
		} else if s.end > to {
			total += s.end - to
			to = s.end
		}
	}
	return total
}

// layerBudget is the per-layer account of a traced slice.
type layerBudget struct {
	requests int
	root     int64
	self     [numLayers]int64
	covered  [numLayers]int64
	calls    [numLayers]int
}

// budget groups the recorded spans by request and sums their self
// times. Requests without a root span (cut off by the end of the slice)
// are left out.
func (t *tracer) budget() layerBudget {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].req < spans[j].req })
	var b layerBudget
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].req == spans[i].req {
			j++
		}
		self, covered, calls, root, ok := selfTimes(spans[i:j])
		i = j
		if !ok {
			continue
		}
		b.requests++
		b.root += root
		for l := range self {
			b.self[l] += self[l]
			b.covered[l] += covered[l]
			b.calls[l] += calls[l]
		}
	}
	return b
}

// dump writes the spans of the first maxRequests requests as JSON lines.
func (t *tracer) dump(path string, maxRequests int) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var first uint32
	if len(spans) > 0 {
		first = spans[0].req
		for _, s := range spans {
			first = min(first, s.req)
		}
	}
	for _, s := range spans {
		if int(s.req-first) >= maxRequests {
			continue
		}
		if err := enc.Encode(struct {
			Req     uint32 `json:"req"`
			Layer   string `json:"layer"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{s.req, layerNames[s.layer], s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
