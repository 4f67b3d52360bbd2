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
// The hot path stays cheap two ways: records are pooled and reused
// when they rotate out of the retention ring (ring.Keyed), and the
// engine pays a single context lookup plus a nil check per decision
// when no recorder is attached (the same contract as obsv.TraceFrom).
package explain

import (
	"context"
	"time"
)

// Outcomes as they appear in explain records (matching the audit
// trail's effect vocabulary).
const (
	OutcomeGrant = "grant"
	OutcomeDeny  = "deny"
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
// /v1/explain/{requestID}. Records are pooled — every field must be
// reset between uses (see reset), and readers receive deep copies
// (see Recorder.Get) so ring rotation can never mutate a served
// answer.
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

// Rule appends one constraint evaluation. Safe on a nil receiver so
// the engine can call it unconditionally on the context lookup result;
// callers that build the RuleEval eagerly should still nil-check to
// avoid the argument allocations on unexplained requests.
func (r *Record) Rule(ev RuleEval) {
	if r == nil {
		return
	}
	r.Rules = append(r.Rules, ev)
}

// Terminate notes a bound context instance purged by a granted last
// step. Safe on a nil receiver.
func (r *Record) Terminate(bound string) {
	if r == nil {
		return
	}
	r.Terminated = append(r.Terminated, bound)
}

// finalize derives Governing from the collected rule evaluations;
// called once by Recorder.Commit.
func (r *Record) finalize() {
	r.Governing = nil
	var best *RuleEval
	bestScore := -1.0
	for i := range r.Rules {
		ev := &r.Rules[i]
		if ev.Denied {
			g := *ev
			r.Governing = &g
			return
		}
		if ev.M > 0 {
			if score := float64(ev.KAfter) / float64(ev.M); score > bestScore {
				best, bestScore = ev, score
			}
		}
	}
	if best != nil {
		g := *best
		r.Governing = &g
	}
}

// reset clears the record for reuse, keeping the Rules backing array
// so a pooled record stops allocating once warm.
func (r *Record) reset() {
	rules := r.Rules[:0]
	terminated := r.Terminated[:0]
	*r = Record{Rules: rules, Terminated: terminated}
}

// clone returns a deep copy safe to hold after the original rotates
// out of the ring and is reused: no slice or pointer is shared with
// the pooled record.
func (r *Record) clone() Record {
	out := *r
	out.Roles = cloneStrings(r.Roles)
	out.Terminated = cloneStrings(r.Terminated)
	if len(r.Rules) > 0 {
		out.Rules = make([]RuleEval, len(r.Rules))
		for i, ev := range r.Rules {
			ev.Matched = cloneStrings(ev.Matched)
			out.Rules[i] = ev
		}
	} else {
		out.Rules = nil
	}
	if r.Governing != nil {
		g := *r.Governing
		g.Matched = cloneStrings(g.Matched)
		out.Governing = &g
	}
	return out
}

func cloneStrings(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	return append([]string(nil), in...)
}

// ctxKey carries a *Record through a decision's context.
type ctxKey struct{}

// WithRecord attaches an explain record to the context; the engine
// fills it in as it evaluates constraints.
func WithRecord(ctx context.Context, r *Record) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the context's explain record, or nil. Like
// obsv.TraceFrom, an unexplained request pays exactly this lookup.
func FromContext(ctx context.Context) *Record {
	r, _ := ctx.Value(ctxKey{}).(*Record)
	return r
}
