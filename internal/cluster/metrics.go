package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"

	"msod/internal/obsv"
	"msod/internal/server"
)

// gwMetrics are the gateway's own counters, served alongside the
// aggregated shard metrics.
type gwMetrics struct {
	routed      atomic.Int64 // decision/advice requests routed to a shard
	unavailable atomic.Int64 // requests failed closed (503)
	retries     atomic.Int64 // same-shard transport retries
	misrouted   atomic.Int64 // answers withheld: resolved subject not the routing key
	broken      atomic.Int64 // requests refused by an open circuit breaker
	badRequests atomic.Int64
	// Handoff lifecycle counters (see handoff.go): handoffRefusals are
	// the fail-closed 503s during the handoff window, for keys whose
	// owner the handoff changes (and for management requests).
	handoffStarted    atomic.Int64
	handoffCompleted  atomic.Int64
	handoffFailed     atomic.Int64
	handoffRefusals   atomic.Int64
	handoffUsersMoved atomic.Int64
	// activationFanouts counts FirstStep grants whose activation is owed
	// to the peer shards; activationWithheld counts those withheld
	// fail-closed because it could not be queued for one of them.
	activationFanouts  atomic.Int64
	activationWithheld atomic.Int64
}

// metricFamily is one metric family of the aggregated scrape: the
// HELP/TYPE header from the first body that declared it, then every
// body's sample lines in body order.
type metricFamily struct {
	header []string
	series []string
}

// handleMetrics aggregates every live shard's /v1/metrics by
// injecting a shard="<id>" label into each scraped series, so
// per-shard load, latency and retained-ADI size stay visible through
// one gateway scrape (summing across the cluster is the scraper's
// job, and hides exactly the imbalance a sharded deployment must
// watch). Families keep one HELP/TYPE header and stay contiguous.
// Shards are scraped concurrently under ONE overall deadline —
// scraping several slow shards sequentially would take shards×timeout
// and blow a Prometheus scrape budget — and the bodies are merged in
// shard order so the output stays deterministic. The gateway's own
// msod_build_info / msod_uptime_seconds merge into the same families
// (unlabelled); its msodgw_* counters follow at the end.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The scraper's dialect is forwarded to the shards: an OpenMetrics
	// scrape pulls exemplar-annotated histograms out of each shard, and
	// ParseSeries carries the exemplars through the shard-label rewrite.
	om := obsv.WantOpenMetrics(r.Header.Get("Accept"))
	accept := ""
	if om {
		accept = obsv.OpenMetricsContentType
	}
	live := slices.DeleteFunc(g.shards(tracked), func(s string) bool { return !g.checker.Up(s) })
	bodies := scatter(r.Context(), g, live, func(ctx context.Context, shard string, _ *server.Client) ([]byte, error) {
		return g.scrapeShard(ctx, shard, accept)
	})

	fams := make(map[string]*metricFamily)
	var order []string
	family := func(name string) *metricFamily {
		f, ok := fams[name]
		if !ok {
			f = &metricFamily{}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	// merge folds one exposition body in: headers claim the family for
	// their samples (histogram _bucket/_sum/_count lines group under
	// the family the preceding TYPE named), and every sample gains the
	// shard label when one is given.
	merge := func(body, shardID string) {
		current := ""
		for _, line := range strings.Split(body, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				fields := strings.Fields(line)
				if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
					current = fields[2]
					f := family(current)
					if len(f.series) == 0 {
						// Only the first body to declare the family
						// contributes its header.
						f.header = append(f.header, line)
					}
				}
				continue
			}
			s, ok := obsv.ParseSeries(line)
			if !ok {
				continue
			}
			name := s.Name
			if current != "" && (name == current || strings.HasPrefix(name, current+"_")) {
				name = current
			}
			if shardID != "" {
				s = s.WithLabel("shard", shardID)
			}
			family(name).series = append(family(name).series, s.String())
		}
	}
	scraped := 0
	for _, body := range bodies {
		if body.err != nil {
			continue
		}
		scraped++
		merge(string(body.val), body.shard)
	}
	// The gateway's own process identity and runtime health join the
	// same families: its msod_go_* series merge unlabeled next to the
	// shard="..." series scraped from each shard.
	var own strings.Builder
	obsv.WriteBuildInfo(&own, "msodgw")
	obsv.WriteUptime(&own, g.start)
	g.runtime.Write(&own)
	merge(own.String(), "")

	if om {
		w.Header().Set("Content-Type", obsv.OpenMetricsContentType)
	} else {
		w.Header().Set("Content-Type", obsv.TextContentType)
	}
	fmt.Fprintf(w, "# msodgw: aggregated over %d live shard(s); shard series carry a shard=\"<id>\" label\n", scraped)
	for _, name := range order {
		f := fams[name]
		for _, h := range f.header {
			fmt.Fprintln(w, h)
		}
		for _, s := range f.series {
			fmt.Fprintln(w, s)
		}
	}
	g.writeOwnMetrics(w)
	if om {
		obsv.WriteOpenMetricsEOF(w)
	}
}

// scrapeShard fetches one shard's metrics body under the caller's
// deadline, forwarding the negotiated Accept dialect when non-empty.
func (g *Gateway) scrapeShard(ctx context.Context, shard, accept string) ([]byte, error) {
	g.mu.RLock()
	base := g.addrs[shard]
	g.mu.RUnlock()
	hc := g.cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequest(http.MethodGet, base+server.MetricsPath, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := hc.Do(req.WithContext(ctx))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// writeOwnMetrics emits the gateway's counters and per-shard gauges.
// Each family name is a literal at the obsv call so msodvet's
// metricname analyzer can vet naming, uniqueness and label stability.
func (g *Gateway) writeOwnMetrics(w io.Writer) {
	obsv.WriteCounter(w, "msodgw_routed_total", "Decision/advice requests routed to their owning shard.", g.metrics.routed.Load())
	obsv.WriteCounter(w, "msodgw_unavailable_total", "Requests failed closed (503) because the owning shard could not answer.", g.metrics.unavailable.Load())
	obsv.WriteCounter(w, "msodgw_retries_total", "Same-shard transport retries.", g.metrics.retries.Load())
	obsv.WriteCounter(w, "msodgw_misrouted_total", "Answers withheld because the shard resolved a subject other than the routing key.", g.metrics.misrouted.Load())
	obsv.WriteCounter(w, "msodgw_bad_requests_total", "Requests rejected before routing (bad input, no subject).", g.metrics.badRequests.Load())
	obsv.WriteCounter(w, "msodgw_breaker_refused_total", "Requests refused by an open circuit breaker (also counted in msodgw_unavailable_total).", g.metrics.broken.Load())
	fmt.Fprintf(w, "# HELP msodgw_shard_up Shard availability (1 up, 0 down).\n# TYPE msodgw_shard_up gauge\n")
	statuses := g.checker.Statuses()
	ids := g.shards(tracked)
	for _, id := range ids {
		up := 0
		if statuses[id].State == Up {
			up = 1
		}
		fmt.Fprintf(w, "msodgw_shard_up{shard=%q} %d\n", id, up)
	}
	fmt.Fprintf(w, "# HELP msodgw_breaker_state Per-shard circuit state (0 closed, 1 half-open, 2 open).\n# TYPE msodgw_breaker_state gauge\n")
	states := g.breaker.States()
	for _, id := range ids {
		fmt.Fprintf(w, "msodgw_breaker_state{shard=%q} %d\n", id, states[id].GaugeValue())
	}
	obsv.WriteGauge(w, "msodgw_ring_epoch", "Ring membership changes applied since gateway boot.", float64(g.epoch.Load()))
	obsv.WriteGauge(w, "msodgw_ring_members", "Authoritative shards currently on the hash ring.", float64(g.ring.Size()))
	fmt.Fprintf(w, "# HELP msodgw_ring_shard_state Per-shard lifecycle (0 active, 1 joining, 2 syncing, 3 draining, 4 gone).\n# TYPE msodgw_ring_shard_state gauge\n")
	for _, id := range ids {
		life, _ := g.shardState(id)
		fmt.Fprintf(w, "msodgw_ring_shard_state{shard=%q} %d\n", id, life.GaugeValue())
	}
	obsv.WriteGauge(w, "msodgw_admission_capacity", "Cluster-wide admission pool capacity (0 = unbounded).", float64(g.admission.Capacity()))
	obsv.WriteGauge(w, "msodgw_admission_inflight", "Requests currently holding a cluster admission token.", float64(g.admission.Inflight()))
	obsv.WriteCounter(w, "msodgw_admission_shed_total", "Requests shed because the cluster admission pool was exhausted.", g.admission.Shed())
	active, age := 0.0, 0.0
	if on, dur := g.handoffActive(); on {
		active = 1
		age = dur.Seconds()
	}
	obsv.WriteGauge(w, "msod_handoff_active", "Whether a membership handoff is in progress (0/1).", active)
	obsv.WriteGauge(w, "msod_handoff_age_seconds", "Age of the in-progress handoff (0 when idle); alert when it exceeds the handoff timeout.", age)
	obsv.WriteCounter(w, "msod_handoff_started_total", "Membership handoffs started (join and drain).", g.metrics.handoffStarted.Load())
	obsv.WriteCounter(w, "msod_handoff_completed_total", "Membership handoffs completed through cutover.", g.metrics.handoffCompleted.Load())
	obsv.WriteCounter(w, "msod_handoff_failed_total", "Membership handoffs aborted before cutover (donor stays authoritative).", g.metrics.handoffFailed.Load())
	obsv.WriteCounter(w, "msod_handoff_refusals_total", "Decisions refused fail-closed during a handoff window (keys whose owner the handoff changes).", g.metrics.handoffRefusals.Load())
	obsv.WriteCounter(w, "msod_handoff_users_moved_total", "Users whose retained-ADI history was streamed to a new owner.", g.metrics.handoffUsersMoved.Load())
	obsv.WriteCounter(w, "msodgw_ctx_activation_fanouts_total", "FirstStep grants that started a context instance: its activation is queued for every peer shard, to ride the next request sent to it, or the grant is withheld.", g.metrics.activationFanouts.Load())
	obsv.WriteCounter(w, "msodgw_ctx_activation_withheld_total", "FirstStep grants withheld fail-closed because the activation could not be queued for a peer shard: its outbox is full of activations it has not acknowledged, or the activation has no requestID or is too large to carry.", g.metrics.activationWithheld.Load())
	obsv.WriteCounter(w, "msodgw_closes_enqueued_total", "LastStep context-instance closes queued for a peer shard, to ride the next request sent to it (one per close and peer).", g.closes.Enqueued.Load())
	fmt.Fprintf(w, "# HELP msodgw_closes_dropped_total Closes given up, by reason: transport (the carrying request failed; may have been applied, never re-sent), overflow (oldest dropped from a full outbox: the shard answers nothing), unsendable (no requestID, or too large to carry). A dropped close leaves deny-safe leftovers on that shard.\n# TYPE msodgw_closes_dropped_total counter\n")
	fmt.Fprintf(w, "msodgw_closes_dropped_total{reason=%q} %d\n", "transport", g.closes.Lost.Load())
	fmt.Fprintf(w, "msodgw_closes_dropped_total{reason=%q} %d\n", "overflow", g.closes.Overflowed.Load())
	fmt.Fprintf(w, "msodgw_closes_dropped_total{reason=%q} %d\n", "unsendable", g.closes.Unsendable.Load())
}
