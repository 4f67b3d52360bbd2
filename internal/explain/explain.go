// Package explain implements per-decision provenance: a structured
// evaluation trace capturing the resolved subject, every MSoD
// constraint the engine consulted with its k-of-m counter state before
// and after the decision, and the exact constraint that governed the
// outcome. The MSoD constraints of the paper are *historical* — a
// refusal depends on which methods the principal performed in earlier
// sessions of the business context — so "why was this denied?" is not
// answerable from the request alone; this package answers it without
// replaying the audit trail by hand.
//
// The shard keeps one record per decision (Ring): the description, the
// engine's rule values and, when the tail sampler keeps it, the span
// tree, served as a Record by request ID and as a trace by trace ID.
// The hot path stays cheap three ways: the engine hands over the values
// it holds and renders nothing (core.Explainer), the entries holding
// them are pooled and reused when they rotate out of the ring, and the
// text of a Record is rendered only when GET /v1/explain serves it.
package explain

import (
	"slices"
	"time"

	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/obsv"
	"msod/internal/rbac"
)

// Outcomes as they appear in explain records (matching the audit
// trail's effect vocabulary), and the outcome of a request that errored
// instead of being decided, which has no explain record.
const (
	OutcomeGrant = "grant"
	OutcomeDeny  = "deny"
	OutcomeError = "error"
)

// Constraint kinds.
const (
	KindMMER = "MMER"
	KindMMEP = "MMEP"
)

// RuleEval is one constraint the engine consulted for a decision: the
// policy and bound context that scoped it, the rule's identity, and
// the consumed-counter state around the decision. K is the conflict
// count the §4.2 algorithm computed *before* this request (distinct
// other mutually exclusive roles held, or conflicting privilege
// positions already exercised, within the bound context); KAfter is
// the count after the decision committed — K plus the newly consumed
// roles/position on a grant, unchanged on a deny. The denial
// conditions are K >= M - len(Matched) for MMER and K >= M - 1 for
// MMEP, with M the rule's forbidden cardinality.
type RuleEval struct {
	// Policy is the policy's (unbound) business context pattern.
	Policy string `json:"policy"`
	// Bound is the context after "!" binding to the request instance.
	Bound string `json:"bound"`
	// Rule identifies the constraint within its policy: "MMER[i]" or
	// "MMEP[i]".
	Rule string `json:"rule"`
	// Kind is KindMMER or KindMMEP.
	Kind string `json:"kind"`
	// K and KAfter are the consumed counts before and after the
	// decision; M is the forbidden cardinality.
	K      int `json:"k"`
	KAfter int `json:"kAfter"`
	M      int `json:"m"`
	// Matched lists what this request consumed: the activated roles the
	// rule lists (MMER) or the requested privilege (MMEP).
	Matched []string `json:"matched,omitempty"`
	// Denied marks the constraint that refused the request.
	Denied bool `json:"denied,omitempty"`
}

// Record is the provenance of one decision, served at
// /v1/explain/{requestID}: Ring.Get renders it from the retained
// Entry, so ring rotation can never mutate a served answer.
type Record struct {
	// RequestID keys the record: the idempotency ID the gateway minted
	// (or the PEP supplied), falling back to the trace ID for direct
	// requests sent without one. The DecisionResponse echoes it.
	RequestID string `json:"requestID"`
	// TraceID cross-links the record with the W3C trace of the same
	// request: the DecisionResponse, the slow-log line, the audit-trail
	// record and the histogram exemplars all carry it.
	TraceID string `json:"traceID,omitempty"`
	// Time is when the PDP began evaluating.
	Time time.Time `json:"time"`
	// User and Roles are the CVS-resolved subject the decision used
	// (not the request's claim — credentials may resolve differently).
	User  string   `json:"user"`
	Roles []string `json:"roles,omitempty"`
	// Operation, Target and Context echo the request.
	Operation string `json:"op"`
	Target    string `json:"target"`
	Context   string `json:"ctx"`
	// Outcome is OutcomeGrant or OutcomeDeny; Phase names the pipeline
	// stage that settled it (cvs, rbac, msod, granted); Reason explains
	// denials.
	Outcome string `json:"outcome"`
	Phase   string `json:"phase"`
	Reason  string `json:"reason,omitempty"`
	// MatchedPolicies, Recorded and Purged echo the engine's decision
	// diagnostics (policies whose context matched; retained-ADI records
	// written and purged).
	MatchedPolicies int `json:"matchedPolicies,omitempty"`
	Recorded        int `json:"recorded,omitempty"`
	Purged          int `json:"purged,omitempty"`
	// ElapsedSeconds is the PDP evaluation time (the same quantity the
	// msod_decision_duration_seconds histogram observes).
	ElapsedSeconds float64 `json:"elapsedSeconds,omitempty"`
	// Rules lists every constraint consulted, in evaluation order. A
	// denial truncates the list — policies after the denying one are
	// never evaluated (§4.2 exits on the first violation).
	Rules []RuleEval `json:"rules,omitempty"`
	// Terminated lists bound context instances purged because this
	// grant was a policy's last step: their counters reset to zero.
	Terminated []string `json:"terminated,omitempty"`
	// Governing is the constraint that determined the outcome: the
	// denying rule on an MSoD refusal, or — on a grant that consulted
	// constraints — the tightest one (highest KAfter/M), the next
	// candidate to refuse. Nil when no MSoD constraint applied.
	Governing *RuleEval `json:"governing,omitempty"`
}

// texts renders a list of a Decision for its Record: nil when it is
// empty, so the member is omitted.
func texts[T any](list []T, text func(T) string) []string {
	if len(list) == 0 {
		return nil
	}
	out := make([]string, len(list))
	for i, v := range list {
		out[i] = text(v)
	}
	return out
}

// finalize derives Governing, a copy, from the rendered rule
// evaluations.
func (r *Record) finalize() {
	r.Governing = nil
	bestScore := -1.0
	for _, ev := range r.Rules {
		if ev.Denied {
			r.Governing = &ev
			return
		}
		if score := float64(ev.KAfter) / float64(ev.M); ev.M > 0 && score > bestScore {
			r.Governing, bestScore = &ev, score
		}
	}
}

// Decision is the shard's one description of a decided request: the
// server fills it once, and the explain record, the retained trace and
// the decision log line each render their view of it.
type Decision struct {
	// RequestID keys the explain record (empty on an advisory, which
	// has none); TraceID keys the retained trace and correlates every
	// view of the decision.
	RequestID, TraceID string
	// Time is when the PDP began evaluating, Elapsed how long it took.
	Time    time.Time
	Elapsed time.Duration
	// User and Roles are the subject the PDP resolved (the request's
	// claim when it resolved none); Context is the instance in its
	// canonical spelling.
	User                       string
	Roles                      []rbac.RoleName
	Operation, Target, Context string
	// Outcome is OutcomeGrant, OutcomeDeny or OutcomeError; Reason is
	// the denial or the error.
	Outcome, Phase, Reason            string
	MatchedPolicies, Recorded, Purged int
	Advisory                          bool
	Terminated                        []bctx.Name // the answer's Closed
}

// Entry is one decision as the ring keeps it: the shard's Decision,
// the rules the engine consulted, as the engine's own values (it is the
// core.Explainer the engine hands them to), and the span tree when the
// tail sampler kept it. Nothing is rendered until a lookup serves it.
type Entry struct {
	Decision
	rules []core.RuleEval
	// SampledFor is the reason the tail sampler kept Spans ("" when it
	// kept none); a lookup by trace ID reads both.
	SampledFor string
	Spans      []obsv.Span
}

// Rule implements core.Explainer.
func (e *Entry) Rule(ev core.RuleEval) { e.rules = append(e.rules, ev) }

// reset clears the entry for reuse, keeping its rules' and spans'
// backing arrays so a pooled entry stops allocating once warm.
func (e *Entry) reset() { *e = Entry{rules: e.rules[:0], Spans: e.Spans[:0]} }

// record renders the entry as served, governing rule included. The
// record shares no slice with the entry, so it stays valid after the
// entry rotates out and is reused.
func (e *Entry) record() Record {
	d := &e.Decision
	r := Record{
		RequestID: d.RequestID, TraceID: d.TraceID, Time: d.Time,
		User: d.User, Roles: texts(d.Roles, func(r rbac.RoleName) string { return string(r) }),
		Terminated: texts(d.Terminated, bctx.Name.String),
		Operation:  d.Operation, Target: d.Target, Context: d.Context,
		Outcome: d.Outcome, Phase: d.Phase, Reason: d.Reason,
		MatchedPolicies: d.MatchedPolicies, Recorded: d.Recorded, Purged: d.Purged,
		ElapsedSeconds: d.Elapsed.Seconds(),
	}
	for i := range e.rules {
		ev := &e.rules[i]
		out := RuleEval{Policy: ev.Policy, Bound: ev.Bound.String(), Rule: ev.Rule, Kind: KindMMEP,
			K: ev.K, KAfter: ev.KAfter, M: ev.M, Denied: ev.Denied}
		if ev.MMER == nil {
			out.Matched = []string{ev.Privilege.String()}
		} else {
			out.Kind = KindMMER
			for _, role := range ev.MMER.Roles { // the rule's roles the request activated
				if slices.Contains(ev.Roles, role) {
					out.Matched = append(out.Matched, string(role))
				}
			}
		}
		r.Rules = append(r.Rules, out)
	}
	r.finalize()
	return r
}
