package refmodel

import (
	"strconv"
	"testing"
	"time"

	"msod/internal/bctx"
	"msod/internal/policy"
	"msod/internal/rbac"
)

var epoch = time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)

func mustModel(t *testing.T, xml string) *Model {
	t.Helper()
	set, err := policy.ParseMSoDPolicySet([]byte(xml))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// repeated is MMEP({p × n}, n) over P=!: p listed n times, forbidden
// cardinality n.
func repeated(n int) string {
	doc := `<MSoDPolicySet><MSoDPolicy BusinessContext="P=!"><MMEP ForbiddenCardinality="` + strconv.Itoa(n) + `">`
	for i := 0; i < n; i++ {
		doc += `<Privilege operation="approve" target="t"/>`
	}
	return doc + `</MMEP></MSoDPolicy></MSoDPolicySet>`
}

// grantsBeforeDeny counts how many consecutive executions of "approve"
// by one user in one instance are granted before the first denial.
func grantsBeforeDeny(t *testing.T, m *Model) int {
	t.Helper()
	req := Request{User: "u", Roles: []rbac.RoleName{"Manager"}, Operation: "approve", Target: "t", Context: bctx.MustParse("P=1")}
	for i := 0; i < 10; i++ {
		dec, err := m.Evaluate(req, epoch)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Grant {
			return i
		}
	}
	t.Fatal("never denied")
	return -1
}

// TestNaiveCountingAblation pins down where multiset counting and the
// literal any-record reading of step 6.iii agree and where they
// diverge: experiment E11. The engine counts multisets, and core's
// differential test holds it to the model's multiset reading.
func TestNaiveCountingAblation(t *testing.T) {
	for _, c := range []struct {
		listed, multiset, anyRecord int
	}{
		// MMEP({p,p},2), the paper's own repetition cap: both readings
		// allow one execution.
		{2, 1, 1},
		// MMEP({p,p,p},3): multiset allows two executions (m-1
		// positions of p are coverable), any-record under-allows at one.
		{3, 2, 1},
	} {
		if got := grantsBeforeDeny(t, mustModel(t, repeated(c.listed))); got != c.multiset {
			t.Errorf("p listed %d times, multiset: %d grants, want %d", c.listed, got, c.multiset)
		}
		naive := mustModel(t, repeated(c.listed))
		naive.anyRecord = true
		if got := grantsBeforeDeny(t, naive); got != c.anyRecord {
			t.Errorf("p listed %d times, any-record: %d grants, want %d", c.listed, got, c.anyRecord)
		}
	}
}

const taxXML = `<MSoDPolicySet>
  <MSoDPolicy BusinessContext="TaxOffice=!, taxRefundProcess=!">
    <FirstStep operation="prepareCheck" targetURI="http://www.myTaxOffice.com/Check"/>
    <LastStep operation="confirmCheck" targetURI="http://secret.location.com/audit"/>
    <MMEP ForbiddenCardinality="2">
      <Operation value="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
      <Operation value="confirmCheck" target="http://secret.location.com/audit"/>
    </MMEP>
    <MMEP ForbiddenCardinality="2">
      <Operation value="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
      <Operation value="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
      <Operation value="combineResults" target="http://secret.location.com/results"/>
    </MMEP>
  </MSoDPolicy>
</MSoDPolicySet>`

// TestNaiveCountingPaperExamples: the paper's Example 2 decides the same
// under both readings, since it lists no privilege more than twice.
func TestNaiveCountingPaperExamples(t *testing.T) {
	const check, results, audit = "http://www.myTaxOffice.com/Check", "http://secret.location.com/results", "http://secret.location.com/audit"
	for _, anyRecord := range []bool{false, true} {
		m := mustModel(t, taxXML)
		m.anyRecord = anyRecord
		for i, s := range []struct {
			user, role, op, target string
			grant                  bool
		}{
			{"c1", "Clerk", "prepareCheck", check, true},
			{"m1", "Manager", "approve/disapproveCheck", check, true},
			{"m1", "Manager", "approve/disapproveCheck", check, false},
			{"m2", "Manager", "approve/disapproveCheck", check, true},
			{"m1", "Manager", "combineResults", results, false},
			{"m3", "Manager", "combineResults", results, true},
			{"c1", "Clerk", "confirmCheck", audit, false},
			{"c2", "Clerk", "confirmCheck", audit, true},
		} {
			dec, err := m.Evaluate(Request{User: rbac.UserID(s.user), Roles: []rbac.RoleName{rbac.RoleName(s.role)},
				Operation: rbac.Operation(s.op), Target: rbac.Object(s.target),
				Context: bctx.MustParse("TaxOffice=Leeds, taxRefundProcess=p1")}, epoch)
			if err != nil || dec.Grant != s.grant {
				t.Errorf("any-record %v, step %d (%s %s): grant %v, %v; want %v", anyRecord, i, s.user, s.op, dec.Grant, err, s.grant)
			}
		}
		if m.Len() != 0 {
			t.Errorf("any-record %v: %d records after the last step", anyRecord, m.Len())
		}
	}
}

// TestOps: each kind of out-of-band change, as DESIGN §5a states it.
func TestOps(t *testing.T) {
	m, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	york, leeds := bctx.MustParse("Branch=York, Period=2006"), bctx.MustParse("Branch=Leeds, Period=2006")
	rec := func(user string, ctx bctx.Name, at time.Time) Record {
		return Record{User: rbac.UserID(user), Roles: []rbac.RoleName{"Teller"}, Operation: "op", Target: "t", Context: ctx, Time: at}
	}
	if _, err := m.Record(rec("a", york, epoch), rec("", york, epoch)); err == nil || m.Len() != 0 {
		t.Fatalf("a record without a user was accepted, or its batch half-applied (%d records)", m.Len())
	}
	if eff, err := m.Record(rec("a", york, epoch), rec("b", leeds, epoch.Add(time.Hour))); err != nil || eff.Added != 2 {
		t.Fatalf("Record = %+v, %v", eff, err)
	}
	// An open instance is not activated again; a pattern is refused.
	if eff, err := m.Activate(york, epoch); err != nil || eff.Activated != 0 {
		t.Errorf("activating an open instance: %+v, %v", eff, err)
	}
	if _, err := m.Activate(bctx.MustParse("Branch=*, Period=2007"), epoch); err == nil {
		t.Error("a pattern was activated")
	}
	// A release keeps York running without a's record.
	if eff := m.Release("a", epoch.Add(2*time.Hour)); eff.Removed != 1 || eff.Activated != 1 || len(eff.Kept) != 1 || !eff.Kept[0].Equal(york) {
		t.Errorf("Release = %+v", eff)
	}
	if !m.ContextActive(york) || m.Len() != 1 {
		t.Errorf("after the release York active %v, %d records", m.ContextActive(york), m.Len())
	}
	// A user purge leaves activations; an age purge takes those older
	// than the cutoff.
	if eff := m.PurgeUser("b"); eff.Removed != 1 || len(m.Instances()) != 1 {
		t.Errorf("PurgeUser = %+v, instances %v", eff, m.Instances())
	}
	if eff := m.PurgeBefore(epoch.Add(3 * time.Hour)); eff.Removed != 0 || m.ContextActive(york) {
		t.Errorf("PurgeBefore = %+v, York still active %v", eff, m.ContextActive(york))
	}
	// A close takes records and activations within its pattern.
	if _, err := m.Record(rec("c", york, epoch)); err != nil {
		t.Fatal(err)
	}
	if eff, err := m.Activate(leeds, epoch); err != nil || eff.Activated != 1 {
		t.Fatalf("activating an empty instance: %+v, %v", eff, err)
	}
	if eff := m.Close(bctx.MustParse("Branch=*, Period=2006")); eff.Removed != 1 || len(m.Instances()) != 0 {
		t.Errorf("Close = %+v, instances %v", eff, m.Instances())
	}
}
