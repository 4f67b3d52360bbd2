package workload

import (
	"testing"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
)

// TestPurgeRegimeRecordCounts pins the retained ADI's size after 1k, 5k
// and 20k bank requests under three regimes that differ only by policy
// and management (experiment E8): no last step, the CommitAudit last
// step (§4.2 step 7), and no last step with a §4.3 management purge of
// Branch=*, Period=p0 every 2,000 requests. Without a last step the
// history only grows; the last step bounds it by closing whole periods.
func TestPurgeRegimeRecordCounts(t *testing.T) {
	noLast := BankPolicy()
	noLast.LastStep = nil
	regimes := []struct {
		name   string
		policy core.Policy
		purge  bool
		want   [3]int
	}{
		{"no last step", noLast, false, [3]int{913, 3_920, 13_306}},
		{"last step", BankPolicy(), false, [3]int{898, 2_870, 6_793}},
		{"no last step + management purge", noLast, true, [3]int{913, 3_540, 11_721}},
	}
	checkpoints := [3]int{1_000, 5_000, 20_000}
	for _, rg := range regimes {
		store := adi.NewStore()
		eng, err := core.NewEngine(store, []core.Policy{rg.policy})
		if err != nil {
			t.Fatal(err)
		}
		gen := NewBank(BankConfig{
			Seed: 11, Users: 300, Branches: 4, Periods: 8,
			AuditorFraction: 0.25, CommitFraction: 0.002,
		})
		var got [3]int
		done := 0
		for i, n := range checkpoints {
			for ; done < n; done++ {
				if _, err := eng.Evaluate(gen.Next()); err != nil {
					t.Fatal(err)
				}
				if rg.purge && (done+1)%2_000 == 0 {
					if _, err := store.PurgeContext(bctx.MustParse("Branch=*, Period=p0")); err != nil {
						t.Fatal(err)
					}
				}
			}
			got[i] = store.Len()
		}
		if got != rg.want {
			t.Errorf("%s: records after %v requests = %v, want %v", rg.name, checkpoints, got, rg.want)
		}
	}
}
