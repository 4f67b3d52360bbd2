package bench

import (
	"fmt"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/rbac"
	"msod/internal/workload"
)

// E15 measures decision latency as the number of *distinct active
// context instances* grows — the second growth axis of an unmanaged
// retained ADI (§4.3). E4 grows records across few contexts; here the
// record count is fixed while instances fan out, stressing the step-3
// ContextActive lookup in the store's instance table.
func E15() (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "Decision latency vs distinct active context instances",
		Ref:     "§4.3 retained-ADI growth (instance fan-out axis)",
		Columns: []string{"active instances", "records", "per decision"},
	}
	const records = 20_000
	for _, instances := range []int{10, 100, 1_000, 10_000} {
		store := adi.NewStore()
		// Spread records over `instances` distinct (Branch=bi, Period=pi)
		// instances; the probe's bound pattern ("Branch=*, Period=p0")
		// matches only the i=0 slice, so the activity check must scan.
		base := workload.Records(42, records, 500, 1)
		recs := make([]adi.Record, len(base))
		for i, r := range base {
			k := i % instances
			r.Context = bctx.MustName(
				bctx.Component{Type: "Branch", Value: fmt.Sprintf("b%d", k)},
				bctx.Component{Type: "Period", Value: fmt.Sprintf("p%d", k)},
			)
			recs[i] = r
		}
		if err := store.Append(recs...); err != nil {
			return nil, err
		}
		p := workload.BankPolicy()
		p.LastStep = nil
		eng, err := core.NewEngine(store, []core.Policy{p}, core.WithClock(fixedClock()))
		if err != nil {
			return nil, err
		}
		// The measured request targets one concrete instance; the engine
		// still has to answer "is the bound context active" against the
		// full instance population.
		req := core.Request{
			User: "probe", Roles: []rbac.RoleName{"Teller"},
			Operation: "HandleCash", Target: "till",
			Context: bctx.MustParse("Branch=b0, Period=p0"),
		}
		d, err := measure(1000, func() error {
			_, err := eng.Evaluate(req)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", instances), fmt.Sprintf("%d", records), fmtDur(d),
		})
	}
	t.Notes = append(t.Notes,
		"the store keeps one table entry per distinct instance and lists the entries by positional component, so the step-3 activity check walks the shortest list its pattern names instead of scanning (a naive scan grew to ~180µs/decision at 10k instances on this host)",
		"the paper's mitigations still matter: last steps terminate instances, §4.3 purges remove them — both bound this set")
	return t, nil
}

// fixedClock returns a deterministic clock for stores that keep
// accumulating probe records during measurement.
func fixedClock() func() time.Time {
	base := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time { return base }
}
