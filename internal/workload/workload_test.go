package workload

import (
	"testing"

	"msod/internal/adi"
	"msod/internal/core"
)

func TestBankDeterminism(t *testing.T) {
	cfg := BankConfig{Seed: 7, Users: 50, Branches: 3, Periods: 2, AuditorFraction: 0.3}
	a := NewBank(cfg).Stream(200)
	b := NewBank(cfg).Stream(200)
	for i := range a {
		if a[i].User != b[i].User || a[i].Operation != b[i].Operation || !a[i].Context.Equal(b[i].Context) {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestBankShape(t *testing.T) {
	b := NewBank(BankConfig{Seed: 1, Users: 10, Branches: 2, Periods: 2,
		AuditorFraction: 0.5, CommitFraction: 0.05})
	sawTeller, sawAuditor, sawCommit := false, false, false
	for i := 0; i < 500; i++ {
		req := b.Next()
		if err := req.Validate(); err != nil {
			t.Fatalf("invalid request: %v", err)
		}
		if req.Context.Len() != 2 {
			t.Fatalf("context = %q", req.Context)
		}
		switch req.Operation {
		case "HandleCash":
			sawTeller = true
		case "Audit":
			sawAuditor = true
		case "CommitAudit":
			sawCommit = true
		}
	}
	if !sawTeller || !sawAuditor || !sawCommit {
		t.Errorf("stream missing op kinds: teller=%v auditor=%v commit=%v", sawTeller, sawAuditor, sawCommit)
	}
}

func TestBankZipfSkew(t *testing.T) {
	uniform := NewBank(BankConfig{Seed: 3, Users: 100, Branches: 1, Periods: 1})
	zipf := NewBank(BankConfig{Seed: 3, Users: 100, Branches: 1, Periods: 1, Zipf: true})
	count := func(b *Bank) map[string]int {
		m := map[string]int{}
		for i := 0; i < 2000; i++ {
			m[string(b.Next().User)]++
		}
		return m
	}
	cu, cz := count(uniform), count(zipf)
	maxOf := func(m map[string]int) int {
		max := 0
		for _, v := range m {
			if v > max {
				max = v
			}
		}
		return max
	}
	if maxOf(cz) <= maxOf(cu) {
		t.Errorf("zipf head (%d) not hotter than uniform head (%d)", maxOf(cz), maxOf(cu))
	}
}

// TestTaxProcessesAreValid: every generated process instance must be
// granted end to end by an engine running the Example 2 policy.
func TestTaxProcessesAreValid(t *testing.T) {
	gen := NewTax(TaxConfig{Seed: 5, Clerks: 4, Managers: 5, Offices: 2})
	eng, err := core.NewEngine(adi.NewStore(), []core.Policy{TaxPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 50; p++ {
		steps := gen.NextProcess()
		if len(steps) != 5 {
			t.Fatalf("process has %d steps", len(steps))
		}
		for _, s := range steps {
			dec, err := eng.Evaluate(s.Request)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Effect != core.Grant {
				t.Fatalf("process %d task %s denied: %v", p, s.Task, dec.Denial)
			}
		}
	}
	// Every instance ends with its last step, so the store must be empty.
	if n := eng.Store().Len(); n != 0 {
		t.Errorf("retained ADI has %d records after complete processes", n)
	}
}

func TestTaxDistinctExecutors(t *testing.T) {
	gen := NewTax(TaxConfig{Seed: 9, Clerks: 2, Managers: 3, Offices: 1})
	for p := 0; p < 100; p++ {
		steps := gen.NextProcess()
		if steps[0].Request.User == steps[4].Request.User {
			t.Fatal("T1 and T4 share a clerk")
		}
		m := map[string]bool{
			string(steps[1].Request.User): true,
			string(steps[2].Request.User): true,
			string(steps[3].Request.User): true,
		}
		if len(m) != 3 {
			t.Fatalf("managers not distinct: %v", m)
		}
	}
}

func TestConfigNormalisation(t *testing.T) {
	b := NewBank(BankConfig{Seed: 1})
	req := b.Next()
	if err := req.Validate(); err != nil {
		t.Fatalf("minimal config: %v", err)
	}
	gen := NewTax(TaxConfig{Seed: 1})
	if len(gen.NextProcess()) != 5 {
		t.Error("minimal tax config broken")
	}
}
