package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/rbac"
)

// Property: step 1 through the first-component-type index selects, for
// any policy set — universal contexts, contexts that are prefixes of
// one another, wildcards in first position — exactly the policies the
// linear MatchInstance walk over all of them selects, in policy order
// and with the same bound contexts.
func TestQuickCandidateIndexIsLinearWalk(t *testing.T) {
	types := []string{"A", "B", "C"}
	randomName := func(r *rand.Rand, values []string) bctx.Name {
		n := bctx.Universal
		for depth := r.Intn(4); depth > 0; depth-- {
			n = n.MustChild(types[r.Intn(len(types))], values[r.Intn(len(values))])
		}
		return n
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		policies := make([]Policy, 1+r.Intn(12))
		for i := range policies {
			policies[i] = Policy{
				Context: randomName(r, []string{"1", "2", "*", "!"}),
				MMER:    []MMERRule{{Roles: []rbac.RoleName{"R0", "R1"}, Cardinality: 2}},
			}
		}
		e, err := NewEngine(adi.NewStore(), policies)
		if err != nil {
			t.Log(err)
			return false
		}
		for k := 0; k < 50; k++ {
			inst := randomName(r, []string{"1", "2", "3"})
			got := e.match(inst, nil)
			for i := range e.policies {
				ok, err := bctx.MatchInstance(e.policies[i].Context, inst)
				if err != nil {
					t.Log(err)
					return false
				}
				if !ok {
					continue
				}
				bound, err := bctx.Bind(e.policies[i].Context, inst)
				if err != nil || len(got) == 0 || got[0].Policy != &e.policies[i] || !got[0].bound.Equal(bound) {
					t.Logf("seed %d: instance %q: policy %d %q (bound %q, %v) is not next in %v", seed, inst, i, e.policies[i].Context, bound, err, got)
					return false
				}
				got = got[1:]
			}
			if len(got) != 0 {
				t.Logf("seed %d: instance %q: index also selected %v", seed, inst, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
