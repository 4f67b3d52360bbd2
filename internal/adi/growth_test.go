package adi

import (
	"fmt"
	"testing"
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
	"msod/internal/refmodel"
)

// The §4.3 warning is that an unmanaged retained ADI "will get too large
// and performance will be degraded". The tests in this file pin what
// the indexed store walks for one decision as the ADI grows along its
// two axes (experiments E4 and E15), as counts of the entries a query
// visits rather than as times.

// growthRecord is the i'th record of a synthetic history spread over
// 200 users and the given number of instances (Branch=bk, Period=pk).
func growthRecord(i, instances int) Record {
	k := i % instances
	return Record{
		User:      rbac.UserID(fmt.Sprintf("user%03d", i%200)),
		Roles:     []rbac.RoleName{"Teller"},
		Operation: "HandleCash",
		Target:    "till",
		Context: bctx.MustName(
			bctx.Component{Type: "Branch", Value: fmt.Sprintf("b%d", k)},
			bctx.Component{Type: "Period", Value: fmt.Sprintf("p%d", k)},
		),
		Time: time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
	}
}

// TestHistoryQueryWalksOnlyTheUsersRecords (E4): as the store grows
// from 10² to 10⁵ records, a probe user's history query walks that
// user's bucket, which holds the probe's own 4 records at every size.
// The reference model (internal/refmodel), the naive store the paper
// warns about, scans its one slice of all of them. Both answer the
// same.
func TestHistoryQueryWalksOnlyTheUsersRecords(t *testing.T) {
	const own = 4
	pattern := bctx.MustParse("Branch=*, Period=*")
	for _, size := range []int{100, 1_000, 10_000, 100_000} {
		recs := make([]Record, 0, size)
		for i := 0; len(recs) < size-own; i++ {
			recs = append(recs, growthRecord(i, 16))
		}
		for i := 0; i < own; i++ {
			r := growthRecord(i, 16)
			r.User = "probe"
			recs = append(recs, r)
		}
		s, naive := NewStore(), newReference()
		if err := s.Append(recs...); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if _, err := naive.Record(refmodel.Record(r)); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(s.byUser["probe"]); got != own {
			t.Errorf("%d records: Store's query walks %d entries, want the probe's %d", size, got, own)
		}
		if got := naive.Len(); got != size {
			t.Errorf("%d records: the model's query scans %d entries, want %d", size, got, size)
		}
		indexed, err := s.CountUserRole("probe", pattern, "Teller", own+1)
		if err != nil {
			t.Fatal(err)
		}
		if linear := len(naive.UserRecords("probe", pattern)); indexed != own || linear != own {
			t.Errorf("%d records: probe's Teller count %d indexed, %d naive; want %d", size, indexed, linear, own)
		}
	}
}

// TestActivityCheckWalksOneCandidate (E15): with 20,000 records spread
// over 10 to 10⁴ distinct (Branch=bk, Period=pk) instances, the step-3
// activity check for Branch=*, Period=p0 walks one candidate instance,
// the shortest component list its pattern names, while the list a scan
// of every branch would walk grows with the instances.
func TestActivityCheckWalksOneCandidate(t *testing.T) {
	const records = 20_000
	pattern := bctx.MustParse("Branch=*, Period=p0")
	for _, instances := range []int{10, 100, 1_000, 10_000} {
		s := NewStore()
		recs := make([]Record, records)
		for i := range recs {
			recs[i] = growthRecord(i, instances)
		}
		if err := s.Append(recs...); err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		candidates := len(s.candidatesLocked(pattern))
		branches := len(s.comps[compKey{0, "Branch", ""}])
		s.mu.RUnlock()
		if candidates != 1 || branches != instances {
			t.Errorf("%d instances: the check walks %d candidates of %d listed branches, want 1 of %d",
				instances, candidates, branches, instances)
		}
		if active, err := s.ContextActive(pattern); err != nil || !active {
			t.Errorf("%d instances: ContextActive = %v, %v; want true", instances, active, err)
		}
	}
}
