package main

// The oracle is the benchmark's own reference for what every generated
// request must be answered with. It is a deliberately naive reading of
// the paper's §4.2 algorithm for the two policies that receive traffic:
// one flat slice of retained records, scanned linearly, no indexes, no
// locks. It shares no code with internal/core, so an optimisation that
// changes an answer is caught by disagreement, not by a test that was
// optimised along with it.

const (
	phaseGranted = "granted"
	phaseMSoD    = "msod"
	phaseRBAC    = "rbac"
)

type privilege struct{ operation, target string }

// oracleRule is one m-out-of-n constraint: over roles (MMER) when privs
// is empty, over a privilege multiset (MMEP) otherwise.
type oracleRule struct {
	roles []string
	privs []privilege
	m     int
}

// oraclePolicy is one MSoD policy as the oracle sees it. The instance a
// request belongs to is resolved by the generator (it built the
// context), so the oracle never parses context names.
type oraclePolicy struct {
	first, last *privilege
	rules       []oracleRule
}

type oracleRecord struct {
	instance string
	user     string
	roles    []string
	priv     privilege
}

type oracleRequest struct {
	user  string
	roles []string
	priv  privilege
}

type oracle struct {
	// permits is the target access policy: role -> privileges granted.
	permits  map[string][]privilege
	retained []oracleRecord
}

// decide answers one request inside one bound context instance and
// updates the retained records exactly as a single PDP would.
func (o *oracle) decide(p *oraclePolicy, instance string, req oracleRequest) (allowed bool, phase string) {
	if !o.rolesPermit(req.roles, req.priv) {
		return false, phaseRBAC
	}
	isLast := p.last != nil && *p.last == req.priv
	if !o.active(instance) {
		// §4.2 step 4: no history. Only the first step (or any step when
		// the policy names none) starts the instance.
		if p.first != nil && *p.first != req.priv {
			return true, phaseGranted
		}
		if !isLast {
			o.retained = append(o.retained, oracleRecord{instance, req.user, req.roles, req.priv})
		}
		return true, phaseGranted
	}
	var pending []oracleRecord
	for _, rule := range p.rules {
		if len(rule.privs) == 0 {
			// Step 5, MMER: roles of the rule the request activates now,
			// against the other roles of the rule the user held before.
			var matched []string
			held := 0
			for _, role := range rule.roles {
				if contains(req.roles, role) {
					matched = append(matched, role)
				} else if o.userHasRole(instance, req.user, role) {
					held++
				}
			}
			if len(matched) == 0 {
				continue
			}
			if held >= rule.m-len(matched) {
				return false, phaseMSoD
			}
			for _, role := range matched {
				pending = append(pending, oracleRecord{instance, req.user, []string{role}, req.priv})
			}
			continue
		}
		// Step 6, MMEP: one listed occurrence of the requested privilege
		// is this request; every other position counts once per distinct
		// earlier exercise by the same user.
		listed := false
		positions := map[privilege]int{}
		for _, pv := range rule.privs {
			if pv == req.priv && !listed {
				listed = true
				continue
			}
			positions[pv]++
		}
		if !listed {
			continue
		}
		count := 0
		for pv, n := range positions {
			count += min(n, o.userExercised(instance, req.user, pv))
		}
		if count >= rule.m-1 {
			return false, phaseMSoD
		}
		pending = append(pending, oracleRecord{instance, req.user, req.roles, req.priv})
	}
	if isLast {
		o.purge(instance)
	} else {
		o.retained = append(o.retained, pending...)
	}
	return true, phaseGranted
}

func (o *oracle) rolesPermit(roles []string, pv privilege) bool {
	for _, role := range roles {
		for _, granted := range o.permits[role] {
			if granted == pv {
				return true
			}
		}
	}
	return false
}

func (o *oracle) active(instance string) bool {
	for _, r := range o.retained {
		if r.instance == instance {
			return true
		}
	}
	return false
}

func (o *oracle) userHasRole(instance, user, role string) bool {
	for _, r := range o.retained {
		if r.instance == instance && r.user == user && contains(r.roles, role) {
			return true
		}
	}
	return false
}

func (o *oracle) userExercised(instance, user string, pv privilege) int {
	n := 0
	for _, r := range o.retained {
		if r.instance == instance && r.user == user && r.priv == pv {
			n++
		}
	}
	return n
}

func (o *oracle) purge(instance string) {
	kept := o.retained[:0]
	for _, r := range o.retained {
		if r.instance != instance {
			kept = append(kept, r)
		}
	}
	o.retained = kept
}

// retainedIn counts the records the oracle holds for one instance.
func (o *oracle) retainedIn(instance string) int {
	n := 0
	for _, r := range o.retained {
		if r.instance == instance {
			n++
		}
	}
	return n
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
