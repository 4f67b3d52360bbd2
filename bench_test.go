// Benchmarks, one per EXPERIMENTS.md experiment. Run with:
//
//	go test -bench=. -benchmem
//
// The msodbench binary renders the corresponding tables; these
// benchmarks expose the same workloads through testing.B for profiling
// and regression tracking.
package msod_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"path/filepath"
	"testing"
	"time"

	"msod"
	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/bertino"
	"msod/internal/core"
	"msod/internal/vo"
	"msod/internal/workflow"
	"msod/internal/workload"
)

// BenchmarkE1BankAudit measures a full Example 1 cycle: teller work,
// denied auditor switch, commit, post-purge audit.
func BenchmarkE1BankAudit(b *testing.B) {
	eng, err := core.NewEngine(adi.NewStore(), []core.Policy{workload.BankPolicy()})
	if err != nil {
		b.Fatal(err)
	}
	reqs := []core.Request{
		{User: "alice", Roles: []msod.RoleName{"Teller"}, Operation: "HandleCash", Target: "till",
			Context: bctx.MustParse("Branch=York, Period=2006")},
		{User: "alice", Roles: []msod.RoleName{"Auditor"}, Operation: "Audit", Target: "ledger",
			Context: bctx.MustParse("Branch=Leeds, Period=2006")},
		{User: "bob", Roles: []msod.RoleName{"Auditor"}, Operation: "CommitAudit", Target: "audit",
			Context: bctx.MustParse("Branch=York, Period=2006")},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := eng.Evaluate(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE2TaxRefund measures one complete five-step tax refund
// process instance per iteration.
func BenchmarkE2TaxRefund(b *testing.B) {
	eng, err := core.NewEngine(adi.NewStore(), []core.Policy{workload.TaxPolicy()})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewTax(workload.TaxConfig{Seed: 1, Clerks: 4, Managers: 6, Offices: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range gen.NextProcess() {
			if _, err := eng.Evaluate(s.Request); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE3Detection measures one full detection-matrix evaluation
// (five scenarios under four mechanisms).
func BenchmarkE3Detection(b *testing.B) {
	scenarios := vo.Scenarios()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scenarios {
			for _, m := range vo.Mechanisms() {
				if _, err := vo.Run(s, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkE4ADIScaling measures a single MSoD decision against
// pre-populated retained ADIs of increasing size, for both store
// implementations.
func BenchmarkE4ADIScaling(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000} {
		recs := workload.Records(42, size, 200, 16)
		stores := map[string]adi.Recorder{
			"indexed": adi.NewStore(),
			"linear":  adi.NewLinearStore(),
		}
		for name, store := range stores {
			if err := store.Append(recs...); err != nil {
				b.Fatal(err)
			}
			p := workload.BankPolicy()
			p.LastStep = nil
			eng, err := core.NewEngine(store, []core.Policy{p})
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewBank(workload.BankConfig{
				Seed: 7, Users: 200, Branches: 16, Periods: 1, AuditorFraction: 0.3,
			})
			reqs := gen.Stream(512)
			b.Run(fmt.Sprintf("%s/records=%d", name, size), func(b *testing.B) {
				// Peek performs the identical history checks without
				// appending, so the store size stays at the configured
				// baseline for every iteration.
				for i := 0; i < b.N; i++ {
					if _, err := eng.Peek(reqs[i%len(reqs)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE5Recovery measures trail-replay vs snapshot recovery of a
// 5000-event history.
func BenchmarkE5Recovery(b *testing.B) {
	const events = 5_000
	dir := b.TempDir()
	key := []byte("k")
	w, err := audit.NewWriter(filepath.Join(dir, "trail"), key, 4096)
	if err != nil {
		b.Fatal(err)
	}
	p := workload.BankPolicy()
	p.LastStep = nil
	policies := []core.Policy{p}
	live := adi.NewStore()
	eng, err := core.NewEngine(live, policies)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewBank(workload.BankConfig{Seed: 2, Users: 500, Branches: 8, Periods: 4, AuditorFraction: 0.2})
	at := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < events; i++ {
		req := gen.Next()
		dec, err := eng.Evaluate(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Append(audit.NewEvent(req, dec, at)); err != nil {
			b.Fatal(err)
		}
		at = at.Add(time.Second)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	snap, err := adi.NewSecureStore(filepath.Join(dir, "adi.sealed"), key)
	if err != nil {
		b.Fatal(err)
	}
	if err := snap.Save(live.All()); err != nil {
		b.Fatal(err)
	}

	b.Run("trail-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reader, err := audit.NewReader(filepath.Join(dir, "trail"), key)
			if err != nil {
				b.Fatal(err)
			}
			evs, err := reader.All()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := audit.Replay(evs, policies, adi.NewStore()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snap.LoadInto(adi.NewStore()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6Baseline measures per-process authorisation cost: MSoD
// engine vs Bertino precomputed runs, plus the baseline's planning cost.
func BenchmarkE6Baseline(b *testing.B) {
	const clerks, managers = 6, 6
	users := map[msod.UserID][]msod.RoleName{}
	for i := 1; i <= clerks; i++ {
		users[msod.UserID(fmt.Sprintf("clerk%03d", i-1))] = []msod.RoleName{"Clerk"}
	}
	for i := 1; i <= managers; i++ {
		users[msod.UserID(fmt.Sprintf("mgr%03d", i-1))] = []msod.RoleName{"Manager"}
	}
	planner, err := bertino.NewPlanner(workflow.TaxRefundDefinition(), users, bertino.TaxRefundConstraints())
	if err != nil {
		b.Fatal(err)
	}

	b.Run("msod-process", func(b *testing.B) {
		eng, err := core.NewEngine(adi.NewStore(), []core.Policy{workload.TaxPolicy()})
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.NewTax(workload.TaxConfig{Seed: 3, Clerks: clerks, Managers: managers, Offices: 4})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range gen.NextProcess() {
				if _, err := eng.Evaluate(s.Request); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("bertino-process", func(b *testing.B) {
		gen := workload.NewTax(workload.TaxConfig{Seed: 3, Clerks: clerks, Managers: managers, Offices: 4})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run := planner.NewRun()
			for _, s := range gen.NextProcess() {
				if err := run.Commit(s.Task, s.Request.User); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("bertino-precompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := planner.Precompute(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7ContextMatch measures decision cost vs policy-set size.
func BenchmarkE7ContextMatch(b *testing.B) {
	for _, npol := range []int{1, 16, 128} {
		policies := make([]core.Policy, npol)
		for i := range policies {
			typ := "L0"
			if i > 0 {
				typ = fmt.Sprintf("P%d", i)
			}
			policies[i] = core.Policy{
				Context: bctx.MustName(
					bctx.Component{Type: typ, Value: bctx.AnyInstance},
					bctx.Component{Type: "L1", Value: bctx.PerInstance},
				),
				MMER: []core.MMERRule{{Roles: []msod.RoleName{"A", "B"}, Cardinality: 2}},
			}
		}
		// The matching policy's last step equals the benchmarked request
		// so history does not accumulate with b.N (see the E7 harness).
		policies[0].LastStep = &core.Step{Operation: "op", Target: "t"}
		eng, err := core.NewEngine(adi.NewStore(), policies)
		if err != nil {
			b.Fatal(err)
		}
		req := core.Request{
			User: "u", Roles: []msod.RoleName{"A"},
			Operation: "op", Target: "t",
			Context: bctx.MustParse("L0=x, L1=y"),
		}
		b.Run(fmt.Sprintf("policies=%d", npol), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Evaluate(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Purge measures the cost of a last-step purge over a
// populated period subtree.
func BenchmarkE8Purge(b *testing.B) {
	for _, size := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store := adi.NewStore()
				if err := store.Append(workload.Records(9, size, 100, 4)...); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := store.PurgeContext(bctx.MustParse("Branch=*, Period=p0")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Audit measures audit append and full-chain verification.
func BenchmarkE9Audit(b *testing.B) {
	b.Run("append", func(b *testing.B) {
		w, err := audit.NewWriter(b.TempDir(), []byte("k"), 4096)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		ev := audit.Event{
			Time: time.Now(), User: "u", Roles: []string{"Teller"},
			Operation: "op", Target: "t", Context: "Branch=York, Period=2006",
			Effect: audit.EffectGrant, MatchedPolicies: 1,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Append(ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify-10k", func(b *testing.B) {
		dir := b.TempDir()
		w, err := audit.NewWriter(dir, []byte("k"), 4096)
		if err != nil {
			b.Fatal(err)
		}
		ev := audit.Event{Time: time.Now(), User: "u", Operation: "op", Target: "t",
			Context: "A=1", Effect: audit.EffectGrant}
		for i := 0; i < 10_000; i++ {
			if _, err := w.Append(ev); err != nil {
				b.Fatal(err)
			}
		}
		w.Close()
		reader, err := audit.NewReader(dir, []byte("k"))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reader.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10Remote measures in-process vs HTTP-loopback decisions.
func BenchmarkE10Remote(b *testing.B) {
	pol, err := msod.ParsePolicy(benchPolicyXML())
	if err != nil {
		b.Fatal(err)
	}
	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(msod.NewServer(p))
	defer ts.Close()
	client := msod.NewClient(ts.URL)

	b.Run("in-process", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Unique users keep per-user history constant across b.N.
			if _, err := p.Decide(msod.Request{
				User: msod.UserID(fmt.Sprintf("u%d", i)), Roles: []msod.RoleName{"Teller"},
				Operation: "HandleCash", Target: "till",
				Context: msod.MustContext("Branch=York, Period=2006"),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http-loopback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := client.Decision(msod.DecisionRequest{
				User: fmt.Sprintf("u%d", i), Roles: []string{"Teller"},
				Operation: "HandleCash", Target: "till",
				Context: "Branch=York, Period=2006",
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13Overhead measures one PDP decision with and without a
// matching MSoD policy (the E13 configurations, as testing.B targets).
func BenchmarkE13Overhead(b *testing.B) {
	for _, cfg := range []struct {
		name string
		xml  []byte
	}{
		{"plain-rbac", []byte(`
<RBACPolicy id="plain">
  <RoleList><Role value="Teller"/><Role value="Auditor"/></RoleList>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
  </TargetAccessPolicy>
</RBACPolicy>`)},
		{"with-msod", benchPolicyXML()},
	} {
		pol, err := msod.ParsePolicy(cfg.xml)
		if err != nil {
			b.Fatal(err)
		}
		p, err := msod.NewPDP(msod.PDPConfig{Policy: pol})
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.NewBank(workload.BankConfig{
			Seed: 31, Users: 100, Branches: 4, Periods: 2, AuditorFraction: 0.3,
		})
		reqs := gen.Stream(2048)
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := reqs[i%len(reqs)]
				// Unique users keep per-user history constant across b.N.
				r.User = msod.UserID(fmt.Sprintf("%s-%d", r.User, i))
				if _, err := p.Decide(msod.Request{User: r.User, Roles: r.Roles,
					Operation: r.Operation, Target: r.Target, Context: r.Context}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// remoteAdvisor adapts a server client to the PEP's Decider and
// Advisor interfaces, so the "remote" configuration of
// BenchmarkReplicaPreflight measures the same Preflight call with the
// advisory answer coming over HTTP from the owner instead of from the
// embedded mirror.
type remoteAdvisor struct{ c *msod.Client }

func (r remoteAdvisor) wire(req msod.Request) msod.DecisionRequest {
	roles := make([]string, len(req.Roles))
	for i, role := range req.Roles {
		roles[i] = string(role)
	}
	return msod.DecisionRequest{
		User: string(req.User), Roles: roles,
		Operation: string(req.Operation), Target: string(req.Target),
		Context: req.Context.String(),
	}
}

func (r remoteAdvisor) Decide(req msod.Request) (msod.Decision, error) {
	resp, err := r.c.Decision(r.wire(req))
	if err != nil {
		return msod.Decision{}, err
	}
	return msod.Decision{Allowed: resp.Allowed, Reason: resp.Reason}, nil
}

func (r remoteAdvisor) Advise(req msod.Request) (msod.Decision, error) {
	resp, err := r.c.AdviceCtx(context.Background(), r.wire(req))
	if err != nil {
		return msod.Decision{}, err
	}
	return msod.Decision{Allowed: resp.Allowed, Reason: resp.Reason}, nil
}

// BenchmarkReplicaPreflight measures Enforcer.Preflight against a
// seeded owner: "mirror" answers from an embedded advisory mirror (an
// in-process event-fed replica — no network round trip), "remote" asks
// the owner's advisory endpoint over HTTP loopback. The gap is the
// latency a PEP saves per near-limit probe by hosting its own mirror.
func BenchmarkReplicaPreflight(b *testing.B) {
	pol, err := msod.ParsePolicy(benchPolicyXML())
	if err != nil {
		b.Fatal(err)
	}
	broker := msod.NewEventBroker(4096)
	p, err := msod.NewPDP(msod.PDPConfig{
		Policy:   pol,
		Observer: func(ev msod.DecisionEvent) { broker.Publish(ev) },
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(msod.NewServer(p, msod.WithServerEventBroker(broker)))
	defer ts.Close()

	// Seed retained-ADI history so advisory answers consult real state.
	gen := workload.NewBank(workload.BankConfig{
		Seed: 1800, Users: 256, Branches: 8, Periods: 2, AuditorFraction: 0.3, Zipf: true,
	})
	for _, r := range gen.Stream(1000) {
		if _, err := p.Decide(msod.Request{User: r.User, Roles: r.Roles,
			Operation: r.Operation, Target: r.Target, Context: r.Context}); err != nil {
			b.Fatal(err)
		}
	}

	mirror, err := msod.NewAdvisoryMirror(msod.AdvisoryMirrorConfig{
		Owner: ts.URL, Policy: pol,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer mirror.Close()
	warmCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mirror.WaitFresh(warmCtx); err != nil {
		b.Fatal(err)
	}

	subject := msod.Subject{User: "u1", Roles: []msod.RoleName{"Teller"}}
	bc := msod.MustContext("Branch=York, Period=2006")

	b.Run("mirror", func(b *testing.B) {
		enf, err := msod.NewEnforcer(p, subject, bc)
		if err != nil {
			b.Fatal(err)
		}
		enf = enf.WithAdvisory(mirror)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := enf.Preflight("HandleCash", "till"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remote", func(b *testing.B) {
		enf, err := msod.NewEnforcer(remoteAdvisor{c: msod.NewClient(ts.URL)}, subject, bc)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := enf.Preflight("HandleCash", "till"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchPolicyXML() []byte {
	return []byte(`
<RBACPolicy id="bench">
  <RoleList><Role value="Teller"/><Role value="Auditor"/></RoleList>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`)
}
