package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/explain"
	"msod/internal/obsv"
	"msod/internal/rbac"
)

// Request is the MSoD-relevant slice of an access control decision
// request (§4.1): the user's stable ID, the roles activated for this
// request, the operation and target, and the business context instance.
type Request struct {
	// User is mandatory for MSoD (§4.1: "the user's ID becomes
	// mandatory so that the PDP can link together the user's sessions").
	User rbac.UserID
	// Roles are the user's activated roles for this request.
	Roles []rbac.RoleName
	// Operation and Target identify the requested privilege.
	Operation rbac.Operation
	Target    rbac.Object
	// Context is the current business context instance, supplied by the
	// PEP with every request.
	Context bctx.Name
}

// Validate checks the request can be evaluated.
func (r Request) Validate() error {
	if r.User == "" {
		return fmt.Errorf("core: request has empty user ID")
	}
	if !r.Context.IsInstance() {
		return fmt.Errorf("core: request context %q is not an instance", r.Context)
	}
	return nil
}

// Effect is the outcome of an MSoD evaluation.
type Effect int

const (
	// Grant means no MSoD constraint was violated; the decision has been
	// recorded in the retained ADI where applicable.
	Grant Effect = iota
	// Deny means a constraint was violated; the retained ADI is
	// unchanged.
	Deny
)

// String renders the effect.
func (e Effect) String() string {
	if e == Grant {
		return "grant"
	}
	return "deny"
}

// Denial explains which constraint denied a request.
type Denial struct {
	// PolicyContext is the policy's (unbound) business context.
	PolicyContext bctx.Name
	// BoundContext is the context after "!" binding to the request
	// instance — the scope in which the conflict was found.
	BoundContext bctx.Name
	// Rule identifies the violated constraint: "MMER[i]" or "MMEP[i]".
	Rule string
	// Held is the conflict count the algorithm found in the retained
	// history (conflicting roles already held, or conflicting privilege
	// positions already exercised) — the k that tripped the constraint.
	Held int
	// Cardinality is the rule's forbidden cardinality m.
	Cardinality int
	// Reason is a human-readable explanation.
	Reason string
}

// Error renders the denial; Denial satisfies error so PEPs can surface it.
func (d *Denial) Error() string {
	return fmt.Sprintf("msod: denied by %s of policy %q (bound %q): %s",
		d.Rule, d.PolicyContext, d.BoundContext, d.Reason)
}

// Decision is the result of evaluating a request against the MSoD policy
// set.
type Decision struct {
	Effect Effect
	// Denial is set when Effect is Deny.
	Denial *Denial
	// MatchedPolicies counts how many policies' contexts matched the
	// request (diagnostics; 0 means MSoD did not apply).
	MatchedPolicies int
	// Recorded counts retained-ADI records written for a grant.
	Recorded int
	// Purged counts retained-ADI records deleted because the request was
	// a granted last step.
	Purged int
	// Activated lists the bound context instances this grant started
	// for FirstStep-gated policies (the opening record committed).
	// Distributed deployments need it: §4.2 step 4 skips recording
	// while a context has no local history UNLESS the operation is the
	// first step, so a PDP holding a slice of the user population must
	// be told when some OTHER node saw the first step — otherwise its
	// users' operations in the now-running instance pass unrecorded
	// and a later k-of-m check under-counts (a false grant). Policies
	// without a FirstStep never appear here: their opening branch
	// matches every operation, so each node activates independently
	// without losing records.
	Activated []bctx.Name
}

// Engine evaluates requests against a compiled MSoD policy set and a
// retained-ADI store. Evaluations are serialised by an internal mutex so
// the read-check-append sequence of the §4.2 algorithm is atomic with
// respect to concurrent requests (two in-flight conflicting requests
// cannot both pass their history checks and both record).
type Engine struct {
	mu        sync.Mutex
	policies  []Policy
	store     adi.Recorder
	ctxStore  adi.CtxAppender // non-nil when store supports ctx-aware appends
	now       func() time.Time
	expand    func([]rbac.RoleName) []rbac.RoleName
	naiveMMEP bool
}

// Option configures an Engine.
type Option func(*Engine)

// WithClock overrides the engine's time source (used for deterministic
// retained-ADI timestamps in tests and experiments).
func WithClock(now func() time.Time) Option {
	return func(e *Engine) { e.now = now }
}

// WithNaiveMMEPCounting switches MMEP evaluation from multiset counting
// (each remaining rule position needs a distinct supporting ADI record)
// to the literal any-record reading of §4.2 step 6.iii (a remaining
// position counts if *any* matching record exists). The two coincide on
// every constraint in the paper, including MMEP({p,p},2); they diverge
// only when a privilege is listed three or more times — naive counting
// then under-allows (MMEP({p,p,p},3) caps p at one execution instead of
// two). Experiment E11 is the ablation; the engine defaults to multiset
// counting (see DESIGN.md §5).
func WithNaiveMMEPCounting() Option {
	return func(e *Engine) { e.naiveMMEP = true }
}

// WithRoleExpander makes MMER constraints hierarchy-aware: activated
// roles are expanded (typically to their inheritance closure, see
// rbac.Model.Closure) before matching, and retained records carry the
// expanded set. Activating a senior role then conflicts exactly like
// activating the junior roles it inherits.
//
// This is an extension beyond the paper, which does not discuss the
// interaction of MMER with role hierarchies; omit the option for the
// paper's literal behaviour.
func WithRoleExpander(expand func([]rbac.RoleName) []rbac.RoleName) Option {
	return func(e *Engine) { e.expand = expand }
}

// NewEngine builds an engine over the given store and policies. Policies
// are validated; the store must be non-nil.
func NewEngine(store adi.Recorder, policies []Policy, opts ...Option) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("core: nil retained-ADI store")
	}
	for i := range policies {
		if err := policies[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: policy %d: %w", i, err)
		}
	}
	e := &Engine{
		policies: append([]Policy(nil), policies...),
		store:    store,
		now:      time.Now,
	}
	// Resolved once here so the commit path pays no per-decision
	// type assertion.
	e.ctxStore, _ = store.(adi.CtxAppender)
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// Policies returns a copy of the engine's compiled policies.
func (e *Engine) Policies() []Policy {
	return append([]Policy(nil), e.policies...)
}

// Store returns the engine's retained-ADI store.
func (e *Engine) Store() adi.Recorder { return e.store }

// action is one deferred store mutation, applied in policy order only if
// the overall result is Grant.
type action struct {
	purge     bool
	pattern   bctx.Name    // purge pattern
	records   []adi.Record // appends
	activated *bctx.Name   // bound context a FirstStep opening record starts
}

// Evaluate runs the §4.2 enforcement algorithm. The request must already
// have passed the ordinary RBAC check. On Grant, the retained ADI is
// updated (new records and/or last-step purges); on Deny, the store is
// untouched.
func (e *Engine) Evaluate(req Request) (Decision, error) {
	return e.evaluate(context.Background(), req, true)
}

// EvaluateCtx is Evaluate carrying a context: when the context holds
// an obsv.Trace, the engine records one span per matched policy and
// an obsv.StageStore span around the retained-ADI commit phase.
// Untraced contexts pay a single nil check.
func (e *Engine) EvaluateCtx(ctx context.Context, req Request) (Decision, error) {
	return e.evaluate(ctx, req, true)
}

// Peek runs the same algorithm as Evaluate but never mutates the
// retained ADI, answering "would this request be granted right now?" —
// an advisory mode for UX (greying out actions) and for planners. The
// Decision's Recorded field reports how many records a real evaluation
// would have written; Purged is only populated by Evaluate.
//
// Note the TOCTOU caveat inherent to any advisory answer: a Grant from
// Peek can become Deny by the time Evaluate runs if conflicting history
// lands in between.
func (e *Engine) Peek(req Request) (Decision, error) {
	return e.evaluate(context.Background(), req, false)
}

// PeekCtx is Peek carrying a context (see EvaluateCtx).
func (e *Engine) PeekCtx(ctx context.Context, req Request) (Decision, error) {
	return e.evaluate(ctx, req, false)
}

func (e *Engine) evaluate(ctx context.Context, req Request, commit bool) (Decision, error) {
	if err := req.Validate(); err != nil {
		return Decision{}, err
	}
	if e.expand != nil {
		// Hierarchy-aware extension: evaluate and record with the
		// expanded role set (req is a copy; the caller's slice is not
		// modified).
		req.Roles = e.expand(req.Roles)
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	var (
		dec     Decision
		actions []action
		now     = e.now()
		// tr is resolved once; all per-policy and store span
		// bookkeeping is skipped when the request is untraced. xr is
		// the decision's explain record (nil when the request is not
		// being explained — advisories, and servers without a
		// recorder); per-rule counter capture is skipped entirely then.
		tr = obsv.TraceFrom(ctx)
		xr = explain.FromContext(ctx)
	)

	// Step 1: select the policies whose business context matches the
	// request's context instance, binding "!" components.
	for pi := range e.policies {
		p := &e.policies[pi]
		matched, err := bctx.MatchInstance(p.Context, req.Context)
		if err != nil {
			return Decision{}, err
		}
		if !matched {
			continue
		}
		dec.MatchedPolicies++
		bound, err := bctx.Bind(p.Context, req.Context)
		if err != nil {
			return Decision{}, err
		}

		var endPolicy func()
		if tr != nil {
			endPolicy = tr.StartSpan("msod.policy:" + p.Context.String())
		}
		act, denial, err := e.evaluatePolicy(p, bound, req, now, xr)
		if endPolicy != nil {
			endPolicy()
		}
		if err != nil {
			return Decision{}, err
		}
		if denial != nil {
			// Deny exits immediately; no retained-ADI mutation at all.
			return Decision{Effect: Deny, Denial: denial, MatchedPolicies: dec.MatchedPolicies}, nil
		}
		if act != nil {
			actions = append(actions, *act)
		}
	}

	// Commit phase: every matched policy granted, apply mutations in
	// policy order. In advisory mode (Peek) the mutations are only
	// counted, never applied.
	if tr != nil && commit && len(actions) > 0 {
		endStore := tr.StartSpan(obsv.StageStore)
		defer endStore()
	}
	for _, act := range actions {
		if act.purge {
			if commit {
				n, err := e.store.PurgeContext(act.pattern)
				if err != nil {
					return Decision{}, fmt.Errorf("core: purge %q: %w", act.pattern, err)
				}
				dec.Purged += n
				if xr != nil {
					// Recorded at commit (not evaluation) time so a
					// later policy's denial cannot leave a phantom
					// termination in the explain record.
					xr.Terminate(act.pattern.String())
				}
			}
			continue
		}
		if len(act.records) > 0 {
			if commit {
				var err error
				if e.ctxStore != nil {
					// Context-aware stores (the durable ADI) record the
					// WAL round trip as a sub-span of the store stage.
					err = e.ctxStore.AppendCtx(ctx, act.records...)
				} else {
					err = e.store.Append(act.records...)
				}
				if err != nil {
					return Decision{}, fmt.Errorf("core: record decision: %w", err)
				}
			}
			dec.Recorded += len(act.records)
			if commit && act.activated != nil {
				dec.Activated = append(dec.Activated, *act.activated)
			}
		}
	}
	dec.Effect = Grant
	return dec, nil
}

// evaluatePolicy runs steps 3–7 for one matched policy with its bound
// context. It returns the deferred store action for a grant, or a denial.
// When xr is non-nil, every consulted constraint is appended to the
// explain record with its k-of-m counter state before and after.
func (e *Engine) evaluatePolicy(p *Policy, bound bctx.Name, req Request, now time.Time, xr *explain.Record) (*action, *Denial, error) {
	// Step 7 precheck: a granted last step terminates the context
	// instance — the §4.2 text orders this after the constraint checks,
	// and the PERMIS implementation (§5.2) flushes on recording the
	// granted last step. Constraint checks still apply to the last step
	// itself (it may be one of the mutually exclusive privileges).
	isLast := p.LastStep.matches(req.Operation, req.Target)

	// Step 3: has this bound context instance any retained history?
	active, err := e.store.ContextActive(bound)
	if err != nil {
		return nil, nil, fmt.Errorf("core: context query: %w", err)
	}

	if !active {
		// Step 4: no history. Record only if this is the policy's first
		// step, or the policy defines none (enforcement starts with the
		// first operation invoked inside the context).
		if p.FirstStep == nil || p.FirstStep.matches(req.Operation, req.Target) {
			if isLast {
				// First operation is also the last step: the instance
				// terminates immediately; nothing to retain.
				return &action{purge: true, pattern: bound}, nil, nil
			}
			if xr != nil {
				// The opening record seeds the k-of-m counters that
				// later requests are judged against, so the provenance
				// trace shows which constraints now track this context
				// and where their counters land (k 0 -> nr).
				explainOpening(p, bound, req, xr)
			}
			act := &action{records: []adi.Record{newRecord(req, now)}}
			if p.FirstStep != nil {
				// An explicit first step starting the instance is the
				// activation other nodes of a distributed PDP must hear
				// about (see Decision.Activated).
				b := bound
				act.activated = &b
			}
			return act, nil, nil
		}
		// Context has not started: MSoD does not yet apply.
		return nil, nil, nil
	}

	pending := make([]adi.Record, 0, 2)

	// Step 5: MMER constraints.
	for i, rule := range p.MMER {
		nr := 0
		var matchedRoles []rbac.RoleName
		remaining := make([]rbac.RoleName, 0, len(rule.Roles))
		for _, role := range rule.Roles {
			if containsRole(req.Roles, role) {
				nr++
				matchedRoles = append(matchedRoles, role)
			} else {
				remaining = append(remaining, role)
			}
		}
		if nr == 0 {
			continue
		}
		count := 0
		for _, role := range remaining {
			ok, err := e.store.UserHasRole(req.User, bound, role)
			if err != nil {
				return nil, nil, fmt.Errorf("core: role history query: %w", err)
			}
			if ok {
				count++
			}
		}
		denied := count >= rule.Cardinality-nr
		if xr != nil {
			after := count
			if !denied {
				// A grant records every matched role (step 5.iv), so the
				// user then holds all of them in the bound context.
				after = count + nr
			}
			xr.Rule(explain.RuleEval{
				Policy: p.Context.String(), Bound: bound.String(),
				Rule: fmt.Sprintf("MMER[%d]", i), Kind: explain.KindMMER,
				K: count, KAfter: after, M: rule.Cardinality,
				Matched: roleStrings(matchedRoles), Denied: denied,
			})
		}
		if denied {
			return nil, &Denial{
				PolicyContext: p.Context,
				BoundContext:  bound,
				Rule:          fmt.Sprintf("MMER[%d]", i),
				Held:          count,
				Cardinality:   rule.Cardinality,
				Reason: fmt.Sprintf("user %q activating %v already holds %d conflicting role(s) in this context (forbidden cardinality %d)",
					req.User, matchedRoles, count, rule.Cardinality),
			}, nil
		}
		// Step 5.iv: one new record per currently matched role.
		for _, role := range matchedRoles {
			rec := newRecord(req, now)
			rec.Roles = []rbac.RoleName{role}
			pending = append(pending, rec)
		}
	}

	// Step 6: MMEP constraints.
	reqPriv := rbac.Permission{Operation: req.Operation, Object: req.Target}
	for i, rule := range p.MMEP {
		// Positions equal to the requested privilege; one occurrence is
		// the current request and is ignored from counting.
		positions := make(map[rbac.Permission]int, len(rule.Privileges))
		reqPositions := 0
		for _, priv := range rule.Privileges {
			if priv == reqPriv {
				reqPositions++
			} else {
				positions[priv]++
			}
		}
		if reqPositions == 0 {
			continue
		}
		if reqPositions > 1 {
			// The privilege is listed multiple times: the occurrences
			// beyond the current request remain countable positions, so
			// prior executions of the same privilege are conflicts (this
			// is the MMEP({p,p},2) repetition cap of §2.4/§3).
			positions[reqPriv] = reqPositions - 1
		}
		// Multiset matching (default): each remaining position needs a
		// distinct supporting ADI record of the same privilege. Naive
		// mode counts a position whenever any matching record exists
		// (the E11 ablation).
		count := 0
		for priv, nPos := range positions {
			limit := nPos
			if e.naiveMMEP {
				limit = 1
			}
			n, err := e.store.CountUserPrivilege(req.User, bound, priv, limit)
			if err != nil {
				return nil, nil, fmt.Errorf("core: privilege history query: %w", err)
			}
			if e.naiveMMEP && n > 0 {
				n = nPos
			}
			count += n
		}
		denied := count >= rule.Cardinality-1
		if xr != nil {
			after := count
			if !denied {
				after = count + 1 // this request consumes one position
			}
			xr.Rule(explain.RuleEval{
				Policy: p.Context.String(), Bound: bound.String(),
				Rule: fmt.Sprintf("MMEP[%d]", i), Kind: explain.KindMMEP,
				K: count, KAfter: after, M: rule.Cardinality,
				Matched: []string{fmt.Sprint(reqPriv)}, Denied: denied,
			})
		}
		if denied {
			return nil, &Denial{
				PolicyContext: p.Context,
				BoundContext:  bound,
				Rule:          fmt.Sprintf("MMEP[%d]", i),
				Held:          count,
				Cardinality:   rule.Cardinality,
				Reason: fmt.Sprintf("user %q requesting %v already exercised %d conflicting privilege(s) in this context (forbidden cardinality %d)",
					req.User, reqPriv, count, rule.Cardinality),
			}, nil
		}
		pending = append(pending, newRecord(req, now))
	}

	// Step 7: a granted last step terminates the bound context instance;
	// otherwise the pending records are retained.
	if isLast {
		return &action{purge: true, pattern: bound}, nil, nil
	}
	return &action{records: pending}, nil, nil
}

// explainOpening appends the rule evaluations of a context-opening
// grant (step 4: no retained history, so every consulted counter is
// zero). The opening record supports later UserHasRole /
// CountUserPrivilege counts, so KAfter reflects the state the grant
// leaves behind: nr matched roles for MMER, one consumed position for
// MMEP.
func explainOpening(p *Policy, bound bctx.Name, req Request, xr *explain.Record) {
	for i, rule := range p.MMER {
		var matched []rbac.RoleName
		for _, role := range rule.Roles {
			if containsRole(req.Roles, role) {
				matched = append(matched, role)
			}
		}
		if len(matched) == 0 {
			continue
		}
		xr.Rule(explain.RuleEval{
			Policy: p.Context.String(), Bound: bound.String(),
			Rule: fmt.Sprintf("MMER[%d]", i), Kind: explain.KindMMER,
			K: 0, KAfter: len(matched), M: rule.Cardinality,
			Matched: roleStrings(matched),
		})
	}
	reqPriv := rbac.Permission{Operation: req.Operation, Object: req.Target}
	for i, rule := range p.MMEP {
		listed := false
		for _, priv := range rule.Privileges {
			if priv == reqPriv {
				listed = true
				break
			}
		}
		if !listed {
			continue
		}
		xr.Rule(explain.RuleEval{
			Policy: p.Context.String(), Bound: bound.String(),
			Rule: fmt.Sprintf("MMEP[%d]", i), Kind: explain.KindMMEP,
			K: 0, KAfter: 1, M: rule.Cardinality,
			Matched: []string{fmt.Sprint(reqPriv)},
		})
	}
}

// newRecord builds the §4.2 six-tuple for the request. The stored
// context is the request's concrete instance, so that future policies
// binding different patterns can still match it.
func newRecord(req Request, now time.Time) adi.Record {
	return adi.Record{
		User:      req.User,
		Roles:     append([]rbac.RoleName(nil), req.Roles...),
		Operation: req.Operation,
		Target:    req.Target,
		Context:   req.Context,
		Time:      now,
	}
}

// roleStrings renders a role list for an explain record; only called
// on the explained path, so unexplained decisions never pay the
// conversion.
func roleStrings(roles []rbac.RoleName) []string {
	out := make([]string, len(roles))
	for i, r := range roles {
		out[i] = string(r)
	}
	return out
}

func containsRole(roles []rbac.RoleName, r rbac.RoleName) bool {
	for _, x := range roles {
		if x == r {
			return true
		}
	}
	return false
}
