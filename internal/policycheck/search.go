package policycheck

import (
	"fmt"
	"strings"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/policy"
	"msod/internal/rbac"
)

// The satisfiability/finishability search simulates business-method
// schedules through the real decision engine (core.Engine over a fresh
// in-memory retained-ADI store), so the verdicts use exactly the §4.2
// semantics the PDP enforces — including first-step gating, per-policy
// bound contexts and multiset MMEP counting — instead of a re-derived
// approximation that could drift.
//
// The state space is bounded, and the bound is sufficient: every
// MMER/MMEP constraint counts per user, so a schedule that assigns each
// step its own fresh user exercises the weakest possible constraint
// state. If no schedule with at most one user per step (plus one spare)
// succeeds, no schedule at all does. The search therefore proves
// unsatisfiability, not merely fails to find a witness — except when the
// evaluation budget runs out, which is reported as an Info finding
// rather than a verdict.

// simStep is one business-method step: a privilege the method must
// exercise inside the context instance.
type simStep struct {
	perm    rbac.Permission
	label   string
	isFirst bool
	isLast  bool
}

func (s simStep) String() string { return s.label }

// methodSteps derives the business method's step universe: the first
// step, every *granted* distinct MMEP privilege, and the last step.
// Ungranted MMEP privileges are dead positions (a Lint warning) rather
// than steps; a privilege appearing several times — across rules or as
// a delimiter — is one step. Multiset rules that allow a privilege k-1
// repetitions are modelled by a single execution: the method completes
// if each distinct step can commit once.
func (c *checker) methodSteps(mp policy.MSoDPolicy) []simStep {
	var steps []simStep
	seen := make(map[rbac.Permission]bool)
	add := func(op, target, label string, first, last bool) {
		perm := rbac.Permission{Operation: rbac.Operation(op), Object: rbac.Object(target)}
		if seen[perm] {
			return
		}
		seen[perm] = true
		steps = append(steps, simStep{perm: perm, label: label, isFirst: first, isLast: last})
	}
	if mp.FirstStep != nil {
		last := mp.LastStep != nil && mp.LastStep.Operation == mp.FirstStep.Operation && mp.LastStep.TargetURI == mp.FirstStep.TargetURI
		add(mp.FirstStep.Operation, mp.FirstStep.TargetURI,
			fmt.Sprintf("first step %s@%s", mp.FirstStep.Operation, mp.FirstStep.TargetURI), true, last)
	}
	lastPerm := rbac.Permission{}
	if mp.LastStep != nil {
		lastPerm = rbac.Permission{Operation: rbac.Operation(mp.LastStep.Operation), Object: rbac.Object(mp.LastStep.TargetURI)}
	}
	for _, rule := range mp.MMEP {
		for _, pr := range rule.AllPrivileges() {
			perm := rbac.Permission{Operation: rbac.Operation(pr.Operation), Object: rbac.Object(pr.Target)}
			if mp.LastStep != nil && perm == lastPerm {
				continue // appended last, below
			}
			if len(c.grantors(perm)) == 0 {
				continue
			}
			add(pr.Operation, pr.Target, fmt.Sprintf("%s@%s", pr.Operation, pr.Target), false, false)
		}
	}
	if mp.LastStep != nil && !seen[lastPerm] {
		add(mp.LastStep.Operation, mp.LastStep.TargetURI,
			fmt.Sprintf("last step %s@%s", mp.LastStep.Operation, mp.LastStep.TargetURI), false, true)
	}
	return steps
}

// simInstance binds the policy's context pattern to a concrete instance
// for simulation: wildcard components take a fixed synthetic value.
func simInstance(pattern bctx.Name) (bctx.Name, error) {
	comps := pattern.Components()
	for i := range comps {
		if comps[i].IsWildcard() {
			comps[i].Value = "sim"
		}
	}
	return bctx.NewName(comps...)
}

type choice struct {
	step int // index into searcher.steps
	user int
	role rbac.RoleName
}

type searcher struct {
	c        *checker
	steps    []simStep
	inst     bctx.Name
	grantors [][]rbac.RoleName // usable grantors per step
	maxUsers int
	budget   int

	choices   []choice
	userRoles []map[rbac.RoleName]bool
	executed  []bool

	// Diagnosis of the deepest frontier reached.
	best       int
	stuck      simStep
	lastDenial *core.Denial
	lastTry    choice // the request lastDenial refused

	inconclusive bool
	evalErr      error
}

// search runs the bounded schedule exploration for MSoDPolicy[i] and
// reports unsatisfiable/unfinishable findings. Callers have already
// verified every step has at least one usable grantor.
func (c *checker) search(i int) {
	mp := c.p.MSoD.Policies[i]
	ctx, err := mp.Context()
	if err != nil || ctx.Len() == 0 {
		return
	}
	steps := c.methodSteps(mp)
	if len(steps) == 0 {
		return // MMER-only policy with no delimiters: no method to check
	}
	inst, err := simInstance(ctx)
	if err != nil {
		return
	}
	maxUsers := c.cfg.MaxUsers
	if maxUsers <= 0 {
		maxUsers = len(steps) + 1
	}
	s := &searcher{
		c: c, steps: steps, inst: inst,
		maxUsers: maxUsers, budget: c.cfg.MaxEvals,
		executed: make([]bool, len(steps)),
		best:     -1,
	}
	s.grantors = make([][]rbac.RoleName, len(steps))
	for j, st := range steps {
		s.grantors[j] = c.usable(c.grantors(st.perm))
	}
	where := fmt.Sprintf("MSoDPolicy[%d]", i)
	if s.dfs(0) {
		return // a compliant schedule exists: satisfiable and finishable
	}
	if s.inconclusive {
		msg := "analysis budget exhausted; satisfiability of the business method was not established (raise Config.MaxEvals)"
		if s.evalErr != nil {
			msg = fmt.Sprintf("simulation aborted: %v", s.evalErr)
		}
		c.report(policy.Info, where, CheckUnsatisfiable, "%s", msg)
		return
	}
	detail := ""
	if s.lastDenial != nil {
		d := s.lastDenial
		detail = fmt.Sprintf("; every schedule is denied by %s (forbidden cardinality %d), e.g. %s", d.Rule, d.Cardinality, s.example(s.lastTry, d))
	}
	if s.stuck.isLast && s.best == len(steps)-1 {
		c.report(policy.Error, where, CheckUnfinishable,
			"business method cannot finish: all %d earlier steps commit, but no compliant team can then execute %s%s; granted context instances stay open forever",
			len(steps)-1, s.stuck, detail)
		return
	}
	c.report(policy.Error, where, CheckUnsatisfiable,
		"business method is unsatisfiable: no assignment of users to roles permitted by the RBAC model executes all %d steps (stuck at %s after %d)%s",
		len(steps), s.stuck, s.best, detail)
}

// dfs tries to extend the current schedule by one step; depth counts
// committed steps. Fresh users are tried first (weakest constraint
// state), then users already on the team with every usable role the SSD
// sets allow them to take on.
func (s *searcher) dfs(depth int) bool {
	if depth == len(s.steps) {
		return true
	}
	mustFirst := -1
	for i, st := range s.steps {
		if st.isFirst && !s.executed[i] {
			mustFirst = i
		}
	}
	for i, st := range s.steps {
		if s.executed[i] {
			continue
		}
		if mustFirst >= 0 && i != mustFirst {
			continue // the declared first step opens the context
		}
		if st.isLast && depth != len(s.steps)-1 && !st.isFirst {
			continue // a granted last step would purge the open instance
		}
		users := len(s.userRoles)
		limit := users
		if users < s.maxUsers {
			limit = users + 1
		}
		for u := limit - 1; u >= 0; u-- { // fresh user first
			for _, role := range s.grantors[i] {
				if !s.canAssign(u, role) {
					continue
				}
				dec, ok := s.try(i, u, role)
				if !ok {
					return false // budget or engine failure; abort
				}
				if dec.Effect != core.Grant {
					if depth > s.best || s.best < 0 {
						s.best, s.stuck, s.lastDenial, s.lastTry = depth, s.steps[i], dec.Denial, choice{i, u, role}
					}
					continue
				}
				s.push(i, u, role)
				if s.dfs(depth + 1) {
					return true
				}
				s.pop(i, u, role)
			}
		}
		if s.best < depth {
			// Step i had no candidate at all (every user/role pair was
			// SSD-infeasible); remember it as the sticking point.
			s.best, s.stuck = depth, s.steps[i]
		}
	}
	return false
}

// try replays the committed schedule plus one candidate request on a
// fresh engine and store, returning the candidate's decision. Replaying
// from scratch keeps the engine and store free of rollback hooks; at
// the search's bounded depths the cost is negligible.
func (s *searcher) try(step, user int, role rbac.RoleName) (*core.Decision, bool) {
	need := len(s.choices) + 1
	if s.budget < need {
		s.inconclusive = true
		return nil, false
	}
	s.budget -= need
	var opts []core.Option
	if s.c.cfg.HierarchyAware {
		opts = append(opts, core.WithRoleExpander(s.c.model.Closure))
	}
	eng, err := core.NewEngine(adi.NewStore(), s.c.compiled, opts...)
	if err != nil {
		s.inconclusive, s.evalErr = true, err
		return nil, false
	}
	for _, ch := range s.choices {
		if _, err := eng.Evaluate(s.request(ch)); err != nil {
			s.inconclusive, s.evalErr = true, err
			return nil, false
		}
	}
	dec, err := eng.Evaluate(s.request(choice{step, user, role}))
	if err != nil {
		s.inconclusive, s.evalErr = true, err
		return nil, false
	}
	return dec, true
}

func (s *searcher) request(ch choice) core.Request {
	return core.Request{
		User:      rbac.UserID(fmt.Sprintf("u%d", ch.user)),
		Roles:     []rbac.RoleName{ch.role},
		Operation: s.steps[ch.step].perm.Operation,
		Target:    s.steps[ch.step].perm.Object,
		Context:   s.inst,
	}
}

// example says in words what the simulated request ch tried and why d
// refused it. The denial's own text names no user or request: the
// example names the simulated ones.
func (s *searcher) example(ch choice, d *core.Denial) string {
	req := s.request(ch)
	if strings.HasPrefix(d.Rule, "MMEP") {
		return fmt.Sprintf("user %q requesting %s@%s already exercised %d conflicting privilege(s) in this context (forbidden cardinality %d)",
			req.User, req.Operation, req.Target, d.Held, d.Cardinality)
	}
	return fmt.Sprintf("user %q activating %v already holds %d conflicting role(s) in this context (forbidden cardinality %d)",
		req.User, req.Roles, d.Held, d.Cardinality)
}

func (s *searcher) push(step, user int, role rbac.RoleName) {
	s.choices = append(s.choices, choice{step, user, role})
	s.executed[step] = true
	if user == len(s.userRoles) {
		s.userRoles = append(s.userRoles, map[rbac.RoleName]bool{})
	}
	s.userRoles[user][role] = true
}

func (s *searcher) pop(step, user int, role rbac.RoleName) {
	last := s.choices[len(s.choices)-1]
	s.choices = s.choices[:len(s.choices)-1]
	s.executed[step] = false
	// Remove the role only if no earlier choice by this user used it.
	stillHeld := false
	for _, ch := range s.choices {
		if ch.user == user && ch.role == last.role {
			stillHeld = true
			break
		}
	}
	if !stillHeld {
		delete(s.userRoles[user], role)
		if len(s.userRoles[user]) == 0 && user == len(s.userRoles)-1 {
			s.userRoles = s.userRoles[:user]
		}
	}
}

// canAssign reports whether the simulated user could take on the role
// under the policy's SSD sets: the inheritance closure of their
// accumulated roles plus the new one must stay below every set's
// forbidden cardinality (mirroring rbac.Model.AssignRole).
func (s *searcher) canAssign(user int, role rbac.RoleName) bool {
	roles := make([]rbac.RoleName, 0, 4)
	if user < len(s.userRoles) {
		if s.userRoles[user][role] {
			return true // already held: SSD was checked when first assigned
		}
		for _, r := range s.c.p.Roles { // declaration order, deterministic
			if s.userRoles[user][rbac.RoleName(r.Value)] {
				roles = append(roles, rbac.RoleName(r.Value))
			}
		}
	}
	roles = append(roles, role)
	closure := s.c.model.Closure(roles)
	for _, set := range s.c.p.SSD {
		if countIn(closure, set.Roles) >= set.Cardinality {
			return false
		}
	}
	return true
}
