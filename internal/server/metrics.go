package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"msod/internal/obsv"
	"msod/internal/trace"
)

// MetricsPath serves operational counters in the Prometheus text
// exposition format (counters, gauges and fixed-bucket histograms; no
// external dependency).
const MetricsPath = "/v1/metrics"

// metrics holds the server's decision counters and latency
// histograms. Counters are plain atomics; the histograms come from
// obsv and are lock-free too.
type metrics struct {
	decisions     atomic.Int64 // total decision requests answered
	grants        atomic.Int64
	deniedRBAC    atomic.Int64
	deniedMSoD    atomic.Int64
	advisories    atomic.Int64
	managementOps atomic.Int64
	requestErrors atomic.Int64 // bad requests / no subject / internal
	// idempotentReplays counts duplicate RequestIDs answered from the
	// idempotency cache instead of re-deciding.
	idempotentReplays atomic.Int64
	// sentinelRefusals counts decision/advisory requests refused because
	// the audit-chain sentinel latched under fail-closed.
	sentinelRefusals atomic.Int64
	// explainQueries/explainMisses count /v1/explain lookups and the
	// subset that found no record (rotated out, or owned by another
	// shard).
	explainQueries atomic.Int64
	explainMisses  atomic.Int64
	// traceQueries/traceMisses are the same pair for /v1/traces.
	traceQueries atomic.Int64
	traceMisses  atomic.Int64
	// shed counts requests refused by admission control (503 +
	// Retry-After) before any PDP work — see WithAdmissionLimit.
	shed           atomic.Int64
	recordsWritten atomic.Int64
	recordsPurged  atomic.Int64
	// handoffImports/handoffRecordsIn/handoffReleases count the
	// resharding handoff surface: subtree imports applied, records they
	// carried, and post-cutover releases executed.
	handoffImports   atomic.Int64
	handoffRecordsIn atomic.Int64
	handoffReleases  atomic.Int64
	// closesApplied counts last steps granted on other shards whose
	// context instances this shard closed (closes.go), each once.
	closesApplied atomic.Int64
	// duration observes the PDP evaluation time of every decision and
	// advisory request (not transport or JSON handling); stages breaks
	// the same time down by pipeline stage from the request's trace.
	duration *obsv.Histogram
	stages   *obsv.StageHistograms
}

// init allocates the histograms (the counters are usable zero
// values). Called once from New; metrics is never copied afterwards —
// its atomics pin it in place.
func (m *metrics) init() {
	m.duration = obsv.NewHistogram(obsv.DefaultDurationBuckets)
	m.stages = obsv.NewStageHistograms("msod_stage_duration_seconds",
		"Decision pipeline time per stage (cvs, rbac, msod, store, audit); store time is also inside msod.",
		obsv.Stages...)
}

// observe updates the counters from one decision response.
func (m *metrics) observe(resp DecisionResponse, advisory bool) {
	if advisory {
		m.advisories.Add(1)
		return
	}
	m.decisions.Add(1)
	switch {
	case resp.Allowed:
		m.grants.Add(1)
	case resp.Phase == "msod":
		m.deniedMSoD.Add(1)
	default:
		m.deniedRBAC.Add(1)
	}
	m.recordsWritten.Add(int64(resp.Recorded))
	m.recordsPurged.Add(int64(resp.Purged))
}

// observeStages feeds the per-stage histograms from a completed
// trace's spans; span names outside the canonical stage set
// (per-policy engine spans) stay trace-only detail.
func (m *metrics) observeStages(spans []obsv.Span) {
	for _, span := range spans {
		m.stages.Observe(span.Name, span.Duration)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Content negotiation: classic text format by default; scrapers
	// that ask for OpenMetrics additionally get histogram exemplars
	// (trace IDs on the decision-latency buckets) and the # EOF
	// terminator.
	be := s.backend.Load()
	om := obsv.WantOpenMetrics(r.Header.Get("Accept"))
	if om {
		w.Header().Set("Content-Type", obsv.OpenMetricsContentType)
	} else {
		w.Header().Set("Content-Type", obsv.TextContentType)
	}
	obsv.WriteCounter(w, "msod_decisions_total", "Decision requests answered (excluding advisories).", s.metrics.decisions.Load())
	obsv.WriteCounter(w, "msod_grants_total", "Granted decisions.", s.metrics.grants.Load())
	obsv.WriteCounter(w, "msod_denied_rbac_total", "Decisions denied by the RBAC check.", s.metrics.deniedRBAC.Load())
	obsv.WriteCounter(w, "msod_denied_msod_total", "Decisions denied by the MSoD algorithm.", s.metrics.deniedMSoD.Load())
	obsv.WriteCounter(w, "msod_advisories_total", "Advisory (side-effect-free) queries answered.", s.metrics.advisories.Load())
	obsv.WriteCounter(w, "msod_management_ops_total", "Management-port operations executed.", s.metrics.managementOps.Load())
	obsv.WriteCounter(w, "msod_request_errors_total", "Requests rejected before a decision (bad input, no subject).", s.metrics.requestErrors.Load())
	obsv.WriteCounter(w, "msod_decision_replays_total", "Duplicate decision RequestIDs replayed from the idempotency cache.", s.metrics.idempotentReplays.Load())
	obsv.WriteCounter(w, "msod_adi_records_written_total", "Retained-ADI records written by grants.", s.metrics.recordsWritten.Load())
	obsv.WriteCounter(w, "msod_adi_records_purged_total", "Retained-ADI records purged by last steps.", s.metrics.recordsPurged.Load())
	obsv.WriteCounter(w, "msod_audit_trail_errors_total", "Audit-trail appends that failed (decisions served, history NOT durably logged — alert on any increase).", be.pdp.TrailErrors())
	s.metrics.duration.WriteExposition(w, "msod_decision_duration_seconds",
		"PDP evaluation time per decision/advisory request (CVS+RBAC+MSoD, excluding transport).", om)
	s.metrics.stages.Write(w)
	if s.decisions != nil {
		explained, traced := s.decisions.Retained()
		obsv.WriteGauge(w, "msod_explain_records_retained",
			"Decision provenance records currently queryable at /v1/explain/{requestID}.",
			float64(explained))
		obsv.WriteCounter(w, "msod_explain_evicted_total",
			"Decision records the bounded decision ring evicted, explained, errored and advisory alike.", s.decisions.Evicted())
		obsv.WriteCounter(w, "msod_explain_queries_total",
			"/v1/explain lookups served.", s.metrics.explainQueries.Load())
		obsv.WriteCounter(w, "msod_explain_misses_total",
			"/v1/explain lookups that found no record (rotated out, or decided on another shard).",
			s.metrics.explainMisses.Load())
		if s.traces != nil {
			fmt.Fprintf(w, "# HELP msod_trace_sampled_total Tail-sampling keep decisions by retention reason (refusals and errors are always kept).\n# TYPE msod_trace_sampled_total counter\n")
			for _, reason := range trace.Reasons {
				fmt.Fprintf(w, "msod_trace_sampled_total{reason=%q} %d\n", reason, s.traces.SampledTotal(reason))
			}
			obsv.WriteCounter(w, "msod_trace_dropped_total",
				"Decisions the tail sampler chose not to retain (fast grants outside the 1-in-N sample).",
				s.traces.Dropped())
			obsv.WriteGauge(w, "msod_trace_records_retained",
				"Span trees currently queryable at /v1/traces/{traceID}.", float64(traced))
			obsv.WriteCounter(w, "msod_trace_queries_total",
				"/v1/traces lookups served.", s.metrics.traceQueries.Load())
			obsv.WriteCounter(w, "msod_trace_misses_total",
				"/v1/traces lookups that found no trace (not sampled, rotated out, or decided on another shard).",
				s.metrics.traceMisses.Load())
		}
	}
	s.slo.WriteMetrics(w)
	obsv.WriteGauge(w, "msod_adi_records", "Live retained-ADI records.", float64(be.pdp.Store().Len()))
	sum := be.inspector.Summary()
	obsv.WriteGauge(w, "msod_context_instances_open",
		"Distinct business context instances with retained-ADI records.", float64(sum.InstancesOpen))
	obsv.WriteGauge(w, "msod_constraints_tracked",
		"(user, policy, bound context, rule) tuples with at least one consumed role/privilege.", float64(sum.ConstraintsTracked))
	obsv.WriteGauge(w, "msod_constraints_near_limit",
		"Tracked constraint tuples at k == m-1: the next conflicting activation is denied.", float64(sum.ConstraintsNearLimit))
	obsv.WriteCounter(w, "msod_handoff_imports_total",
		"Resharding handoff imports applied (per-user replace of retained-ADI subtrees).",
		s.metrics.handoffImports.Load())
	obsv.WriteCounter(w, "msod_handoff_records_in_total",
		"Retained-ADI records received through handoff imports.",
		s.metrics.handoffRecordsIn.Load())
	obsv.WriteCounter(w, "msod_handoff_releases_total",
		"Post-cutover handoff releases executed (moved users purged from the donor).",
		s.metrics.handoffReleases.Load())
	obsv.WriteCounter(w, "msod_closes_applied_total",
		"Last steps granted on other shards whose context instances were closed here, each applied once (carried on the gateway's requests; needs -handoff).",
		s.metrics.closesApplied.Load())
	obsv.WriteCounter(w, "msod_shed_total",
		"Requests shed by admission control with 503 + Retry-After (server at its in-flight cap).",
		s.metrics.shed.Load())
	readonly := 0.0
	if s.degraded.Load() {
		readonly = 1
	}
	obsv.WriteGauge(w, "msod_degraded_readonly",
		"1 when a durable retained-ADI write failure latched read-only mode (decisions and management refused; advisories and introspection still served).", readonly)
	if s.sentinel != nil {
		s.sentinel.WriteMetrics(w)
		obsv.WriteCounter(w, "msod_sentinel_refusals_total",
			"Decision/advisory requests refused because the audit chain failed verification (fail-closed).",
			s.metrics.sentinelRefusals.Load())
	}
	s.writeVerificationMetrics(w)
	for _, g := range s.gauges {
		//msod:ignore metricname forwarding loop: each name is vetted as a literal at its WithGauge registration site
		obsv.WriteGauge(w, g.name, g.help, g.fn())
	}
	s.runtime.Write(w)
	obsv.WriteBuildInfo(w, "msodd")
	obsv.WriteUptime(w, s.start)
	if om {
		obsv.WriteOpenMetricsEOF(w)
	}
}

// slowLogEnabled reports whether a decision of the given duration
// should produce a structured log line.
func (s *Server) slowLogEnabled(elapsed time.Duration) bool {
	return s.log != nil && elapsed >= s.slowLog
}

// extraGauge is an operator-registered gauge (see WithGauge) — the
// daemon uses it for durable-store size and recovery duration.
type extraGauge struct {
	name, help string
	fn         func() float64
}
