package inspect

import (
	"fmt"
	"sort"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/rbac"
)

// RecordView is the JSON shape of one retained-ADI record in state
// answers.
type RecordView struct {
	Roles     []string  `json:"roles,omitempty"`
	Operation string    `json:"op"`
	Target    string    `json:"target"`
	Context   string    `json:"ctx"`
	Time      time.Time `json:"time"`
}

// ConstraintProgress is one user's progress against one MMER/MMEP rule
// inside one bound context: k of the forbidden cardinality m consumed.
// The engine denies the request that would reach m, so k == m−1 is "one
// step from violation".
type ConstraintProgress struct {
	// Policy is the owning policy's context pattern.
	Policy string `json:"policy"`
	// Bound is the context the rule is evaluated in: the policy pattern
	// with "!" components bound to the instance's values.
	Bound string `json:"bound"`
	// Rule identifies the rule within the policy (MMER[i] / MMEP[i],
	// matching the Denial.Rule vocabulary).
	Rule string `json:"rule"`
	// Kind is "MMER" or "MMEP".
	Kind string `json:"kind"`
	// K is the consumed count, M the forbidden cardinality.
	K int `json:"k"`
	M int `json:"m"`
	// NearLimit is k == m−1: the next conflicting activation is denied.
	NearLimit bool `json:"near_limit"`
	// Roles lists the consumed mutually exclusive roles (MMER).
	Roles []string `json:"roles_consumed,omitempty"`
	// Privileges lists the consumed privilege positions as op@target
	// strings (MMEP), one entry per counted position.
	Privileges []string `json:"privileges_consumed,omitempty"`
	// LastTraceID is the trace ID of the user's most recent decision in
	// the bound context still retained by the event broker (empty when
	// no broker is attached or the event has rotated out).
	LastTraceID string `json:"last_trace_id,omitempty"`
}

// UserState is the /v1/state/users/{user} answer: the user's retained
// records and constraint progress across every open context instance.
type UserState struct {
	User        string               `json:"user"`
	Records     []RecordView         `json:"records,omitempty"`
	Constraints []ConstraintProgress `json:"constraints,omitempty"`
}

// ContextState is the /v1/state/contexts/{bc} answer: the open
// instances within the pattern and, per user active there, their
// records and constraint progress scoped to it.
type ContextState struct {
	Context   string      `json:"context"`
	Instances []string    `json:"instances,omitempty"`
	Users     []UserState `json:"users,omitempty"`
}

// Summary feeds the derived gauges on /v1/metrics.
type Summary struct {
	// InstancesOpen is the number of open context instances — with
	// retained records, or activated (msod_context_instances_open).
	InstancesOpen int `json:"instances_open"`
	// ConstraintsTracked counts (user, policy, bound context, rule)
	// tuples with k >= 1 (msod_constraints_tracked).
	ConstraintsTracked int `json:"constraints_tracked"`
	// ConstraintsNearLimit counts tracked tuples with k == m−1
	// (msod_constraints_near_limit).
	ConstraintsNearLimit int `json:"constraints_near_limit"`
}

// Inspector answers state introspection queries by combining the
// engine's compiled policies with a read-only view of the retained ADI.
// All answers are computed from live store state at call time. The
// broker is optional and only supplies last-trace correlation.
type Inspector struct {
	engine  *core.Engine
	browser adi.Browser
	broker  *Broker
}

// NewInspector builds an inspector over the engine's policies and the
// store's browse surface. broker may be nil.
func NewInspector(engine *core.Engine, browser adi.Browser, broker *Broker) *Inspector {
	return &Inspector{engine: engine, browser: browser, broker: broker}
}

// boundPair is one (policy, bound context) evaluation scope derived
// from an open instance.
type boundPair struct {
	policy *core.Policy
	bound  bctx.Name
}

// boundPairs derives the deduplicated (policy, bound context) pairs
// from the open instances, optionally restricted to instances within
// scope. Multiple instances bind a "*"-scoped policy to the same bound
// context; they are reported once, exactly as the engine evaluates
// them.
func (in *Inspector) boundPairs(scope bctx.Name, scoped bool) []boundPair {
	policies := in.engine.Policies()
	seen := make(map[string]bool)
	var out []boundPair
	for _, inst := range in.browser.Instances() {
		if scoped {
			if ok, err := bctx.MatchInstance(scope, inst); err != nil || !ok {
				continue
			}
		}
		for pi := range policies {
			p := &policies[pi]
			if ok, err := bctx.MatchInstance(p.Context, inst); err != nil || !ok {
				continue
			}
			bound, err := bctx.Bind(p.Context, inst)
			if err != nil {
				continue
			}
			key := fmt.Sprintf("%d|%s", pi, bound.Key())
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, boundPair{policy: p, bound: bound})
		}
	}
	return out
}

// progressFor computes the user's constraint progress over the pairs,
// reporting only rules with k >= 1 (a constraint is "tracked" once the
// user has consumed something it counts).
func (in *Inspector) progressFor(user rbac.UserID, pairs []boundPair) []ConstraintProgress {
	var out []ConstraintProgress
	for _, pair := range pairs {
		recs := in.browser.UserRecords(user, pair.bound)
		if len(recs) == 0 {
			continue
		}
		lastTrace := in.lastTraceID(user, pair.bound)
		for i, rule := range pair.policy.MMER {
			var held []string
			for _, role := range rule.Roles {
				for _, rec := range recs {
					if rec.HasRole(role) {
						held = append(held, string(role))
						break
					}
				}
			}
			k := len(held)
			if k == 0 {
				continue
			}
			out = append(out, ConstraintProgress{
				Policy:      pair.policy.Context.String(),
				Bound:       pair.bound.String(),
				Rule:        fmt.Sprintf("MMER[%d]", i),
				Kind:        "MMER",
				K:           k,
				M:           rule.Cardinality,
				NearLimit:   k == rule.Cardinality-1,
				Roles:       held,
				LastTraceID: lastTrace,
			})
		}
		for i, rule := range pair.policy.MMEP {
			// The rule is a privilege multiset: a privilege listed n
			// times contributes up to n countable positions, each needing
			// a distinct supporting record (§4.2 step 6.iii).
			positions := make(map[rbac.Permission]int, len(rule.Privileges))
			for _, priv := range rule.Privileges {
				positions[priv]++
			}
			k := 0
			var consumed []string
			for priv, nPos := range positions {
				n := 0
				for _, rec := range recs {
					if rec.Operation == priv.Operation && rec.Target == priv.Object {
						n++
						if n >= nPos {
							break
						}
					}
				}
				k += n
				for j := 0; j < n; j++ {
					consumed = append(consumed, fmt.Sprintf("%s@%s", priv.Operation, priv.Object))
				}
			}
			if k == 0 {
				continue
			}
			sort.Strings(consumed)
			out = append(out, ConstraintProgress{
				Policy:      pair.policy.Context.String(),
				Bound:       pair.bound.String(),
				Rule:        fmt.Sprintf("MMEP[%d]", i),
				Kind:        "MMEP",
				K:           k,
				M:           rule.Cardinality,
				NearLimit:   k == rule.Cardinality-1,
				Privileges:  consumed,
				LastTraceID: lastTrace,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Policy != out[j].Policy {
			return out[i].Policy < out[j].Policy
		}
		if out[i].Bound != out[j].Bound {
			return out[i].Bound < out[j].Bound
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// lastTraceID finds the user's most recent broker-retained decision
// whose context instance falls within bound.
func (in *Inspector) lastTraceID(user rbac.UserID, bound bctx.Name) string {
	if in.broker == nil {
		return ""
	}
	ev, ok := in.broker.LastMatch(func(ev DecisionEvent) bool {
		if ev.User != string(user) {
			return false
		}
		inst, err := bctx.Parse(ev.Context)
		if err != nil {
			return false
		}
		match, err := bctx.MatchInstance(bound, inst)
		return err == nil && match
	})
	if !ok {
		return ""
	}
	return ev.TraceID
}

func recordViews(recs []adi.Record) []RecordView {
	out := make([]RecordView, 0, len(recs))
	for _, rec := range recs {
		v := RecordView{
			Operation: string(rec.Operation),
			Target:    string(rec.Target),
			Context:   rec.Context.String(),
			Time:      rec.Time,
		}
		for _, role := range rec.Roles {
			v.Roles = append(v.Roles, string(role))
		}
		out = append(out, v)
	}
	return out
}

// UserState reports the user's retained records and constraint progress
// across all open instances.
func (in *Inspector) UserState(user rbac.UserID) UserState {
	pairs := in.boundPairs(bctx.Name{}, false)
	return UserState{
		User:        string(user),
		Records:     recordViews(in.browser.UserRecords(user, bctx.Name{})),
		Constraints: in.progressFor(user, pairs),
	}
}

// ContextState reports the instances open within the pattern and each
// active user's state scoped to it.
func (in *Inspector) ContextState(pattern bctx.Name) ContextState {
	out := ContextState{Context: pattern.String()}
	for _, inst := range in.browser.Instances() {
		if ok, err := bctx.MatchInstance(pattern, inst); err == nil && ok {
			out.Instances = append(out.Instances, inst.String())
		}
	}
	pairs := in.boundPairs(pattern, true)
	for _, user := range in.browser.UserIDs() {
		recs := in.browser.UserRecords(user, pattern)
		cons := in.progressFor(user, pairs)
		if len(recs) == 0 && len(cons) == 0 {
			continue
		}
		out.Users = append(out.Users, UserState{
			User:        string(user),
			Records:     recordViews(recs),
			Constraints: cons,
		})
	}
	return out
}

// Summary computes the derived gauge values.
func (in *Inspector) Summary() Summary {
	s := Summary{InstancesOpen: len(in.browser.Instances())}
	pairs := in.boundPairs(bctx.Name{}, false)
	for _, user := range in.browser.UserIDs() {
		for _, c := range in.progressFor(user, pairs) {
			s.ConstraintsTracked++
			if c.NearLimit {
				s.ConstraintsNearLimit++
			}
		}
	}
	return s
}
