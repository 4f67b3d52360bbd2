// Package workload generates deterministic synthetic request streams
// for the experiments: bank-style MMER workloads over a Branch × Period
// context grid, tax-refund-style MMEP process streams, and raw
// retained-ADI record populations for store-scaling measurements.
//
// All generators are seeded; the same configuration always produces the
// same stream, so the counts the tests pin are reproducible run to run.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/rbac"
)

// BankConfig parameterises the bank workload.
type BankConfig struct {
	// Seed fixes the stream.
	Seed int64
	// Users is the population size.
	Users int
	// Branches and Periods define the context grid.
	Branches int
	Periods  int
	// AuditorFraction is the probability a request presents the Auditor
	// role instead of Teller (conflict pressure).
	AuditorFraction float64
	// Zipf skews user selection towards a hot head when true (a few very
	// active employees), matching realistic access patterns; uniform
	// otherwise.
	Zipf bool
	// CommitFraction is the probability a request is the CommitAudit
	// last step (closing the period context and purging history).
	CommitFraction float64
}

// Bank is a deterministic bank-workload stream.
type Bank struct {
	cfg  BankConfig
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewBank builds a bank workload generator; invalid configurations are
// normalised to minimal sane values.
func NewBank(cfg BankConfig) *Bank {
	if cfg.Users < 1 {
		cfg.Users = 1
	}
	if cfg.Branches < 1 {
		cfg.Branches = 1
	}
	if cfg.Periods < 1 {
		cfg.Periods = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := &Bank{cfg: cfg, rng: rng}
	if cfg.Zipf && cfg.Users > 1 {
		b.zipf = rand.NewZipf(rng, 1.2, 1, uint64(cfg.Users-1))
	}
	return b
}

// BankPolicy returns the Example 1 policy the bank workload is designed
// to exercise.
func BankPolicy() core.Policy {
	return core.Policy{
		Context:  bctx.MustParse("Branch=*, Period=!"),
		LastStep: &core.Step{Operation: "CommitAudit", Target: "audit"},
		MMER: []core.MMERRule{{
			Roles:       []rbac.RoleName{"Teller", "Auditor"},
			Cardinality: 2,
		}},
	}
}

// Next produces the next request in the stream.
func (b *Bank) Next() core.Request {
	var u int
	if b.zipf != nil {
		u = int(b.zipf.Uint64())
	} else {
		u = b.rng.Intn(b.cfg.Users)
	}
	branch := b.rng.Intn(b.cfg.Branches)
	period := b.rng.Intn(b.cfg.Periods)
	ctx := bctx.MustName(
		bctx.Component{Type: "Branch", Value: fmt.Sprintf("b%d", branch)},
		bctx.Component{Type: "Period", Value: fmt.Sprintf("p%d", period)},
	)

	role := rbac.RoleName("Teller")
	op := rbac.Operation("HandleCash")
	target := rbac.Object("till")
	if b.rng.Float64() < b.cfg.AuditorFraction {
		role = "Auditor"
		op = "Audit"
		target = "ledger"
	}
	if b.cfg.CommitFraction > 0 && b.rng.Float64() < b.cfg.CommitFraction {
		role = "Auditor"
		op = "CommitAudit"
		target = "audit"
	}
	return core.Request{
		User:      rbac.UserID(fmt.Sprintf("user%04d", u)),
		Roles:     []rbac.RoleName{role},
		Operation: op,
		Target:    target,
		Context:   ctx,
	}
}

// Stream returns the next n requests.
func (b *Bank) Stream(n int) []core.Request {
	out := make([]core.Request, n)
	for i := range out {
		out[i] = b.Next()
	}
	return out
}

// Records generates n synthetic retained-ADI records spread over the
// given numbers of users and context instances, for seeding a store
// directly. Timestamps advance one second per record from a fixed
// epoch.
func Records(seed int64, n, users, contexts int) []adi.Record {
	if users < 1 {
		users = 1
	}
	if contexts < 1 {
		contexts = 1
	}
	rng := rand.New(rand.NewSource(seed))
	epoch := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	out := make([]adi.Record, n)
	for i := range out {
		role := rbac.RoleName("Teller")
		if rng.Intn(2) == 0 {
			role = "Auditor"
		}
		out[i] = adi.Record{
			User:      rbac.UserID(fmt.Sprintf("user%04d", rng.Intn(users))),
			Roles:     []rbac.RoleName{role},
			Operation: rbac.Operation(fmt.Sprintf("op%d", rng.Intn(8))),
			Target:    "t",
			Context: bctx.MustName(
				bctx.Component{Type: "Branch", Value: fmt.Sprintf("b%d", rng.Intn(contexts))},
				bctx.Component{Type: "Period", Value: "p0"},
			),
			Time: epoch.Add(time.Duration(i) * time.Second),
		}
	}
	return out
}

// TaxConfig parameterises the tax-refund workload.
type TaxConfig struct {
	Seed int64
	// Clerks and Managers are the per-role populations.
	Clerks   int
	Managers int
	// Offices is the number of tax offices (context fan-out).
	Offices int
}

// TaxStep is one step of a process instance: the request plus the task
// name, for harnesses that track workflow progress.
type TaxStep struct {
	Task    string
	Request core.Request
}

// Tax generates complete tax-refund process instances: each call to
// NextProcess yields the five steps (T1, T2×2, T3, T4) of a fresh
// instance with randomly chosen distinct executors — a stream of valid
// processes that an MSoD engine should grant end to end.
type Tax struct {
	cfg  TaxConfig
	rng  *rand.Rand
	next int // process instance counter
}

// NewTax builds a tax workload generator.
func NewTax(cfg TaxConfig) *Tax {
	if cfg.Clerks < 2 {
		cfg.Clerks = 2
	}
	if cfg.Managers < 3 {
		cfg.Managers = 3
	}
	if cfg.Offices < 1 {
		cfg.Offices = 1
	}
	return &Tax{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// TaxPolicy returns the Example 2 policy the tax workload exercises.
func TaxPolicy() core.Policy {
	check := rbac.Object("http://www.myTaxOffice.com/Check")
	auditT := rbac.Object("http://secret.location.com/audit")
	results := rbac.Object("http://secret.location.com/results")
	return core.Policy{
		Context:   bctx.MustParse("TaxOffice=!, taxRefundProcess=!"),
		FirstStep: &core.Step{Operation: "prepareCheck", Target: check},
		LastStep:  &core.Step{Operation: "confirmCheck", Target: auditT},
		MMEP: []core.MMEPRule{
			{
				Privileges: []rbac.Permission{
					{Operation: "prepareCheck", Object: check},
					{Operation: "confirmCheck", Object: auditT},
				},
				Cardinality: 2,
			},
			{
				Privileges: []rbac.Permission{
					{Operation: "approve/disapproveCheck", Object: check},
					{Operation: "approve/disapproveCheck", Object: check},
					{Operation: "combineResults", Object: results},
				},
				Cardinality: 2,
			},
		},
	}
}

// NextProcess yields the five steps of a fresh, constraint-respecting
// process instance.
func (t *Tax) NextProcess() []TaxStep {
	t.next++
	office := t.rng.Intn(t.cfg.Offices)
	ctx := bctx.MustName(
		bctx.Component{Type: "TaxOffice", Value: fmt.Sprintf("o%d", office)},
		bctx.Component{Type: "taxRefundProcess", Value: fmt.Sprintf("p%06d", t.next)},
	)
	// Two distinct clerks, three distinct managers.
	c1, c2 := t.distinctPair(t.cfg.Clerks)
	m1, m2, m3 := t.distinctTriple(t.cfg.Managers)
	clerk := func(i int) rbac.UserID { return rbac.UserID(fmt.Sprintf("clerk%03d", i)) }
	mgr := func(i int) rbac.UserID { return rbac.UserID(fmt.Sprintf("mgr%03d", i)) }

	check := rbac.Object("http://www.myTaxOffice.com/Check")
	auditT := rbac.Object("http://secret.location.com/audit")
	results := rbac.Object("http://secret.location.com/results")

	mk := func(task string, user rbac.UserID, role rbac.RoleName, op rbac.Operation, target rbac.Object) TaxStep {
		return TaxStep{Task: task, Request: core.Request{
			User: user, Roles: []rbac.RoleName{role},
			Operation: op, Target: target, Context: ctx,
		}}
	}
	return []TaxStep{
		mk("T1", clerk(c1), "Clerk", "prepareCheck", check),
		mk("T2", mgr(m1), "Manager", "approve/disapproveCheck", check),
		mk("T2", mgr(m2), "Manager", "approve/disapproveCheck", check),
		mk("T3", mgr(m3), "Manager", "combineResults", results),
		mk("T4", clerk(c2), "Clerk", "confirmCheck", auditT),
	}
}

func (t *Tax) distinctPair(n int) (int, int) {
	a := t.rng.Intn(n)
	b := t.rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

func (t *Tax) distinctTriple(n int) (int, int, int) {
	a, b := t.distinctPair(n)
	c := t.rng.Intn(n)
	for c == a || c == b {
		c = t.rng.Intn(n)
	}
	return a, b, c
}
