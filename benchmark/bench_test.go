package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/server"
)

func loadTestConfig(t *testing.T) (*benchmarkSpec, *workloadsFile) {
	t.Helper()
	spec, wf, err := loadConfig("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec, wf
}

// stream renders the first n requests of client 0's stream in wire form.
func stream(tr *traffic, n int) []byte {
	cur := newCursor(tr, 0, 2)
	var b []byte
	for i := 0; i < n; i++ {
		o, f, instance := cur.next()
		b = appendRequest(b, o, f, instance)
		b = append(b, '\n')
	}
	return b
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a := stream(generateTraffic(fullSize, 0.6, 7), 5000)
	b := stream(generateTraffic(fullSize, 0.6, 7), 5000)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced two different streams")
	}
	if c := stream(generateTraffic(fullSize, 0.6, 8), 5000); bytes.Equal(a, c) {
		t.Fatal("two seeds produced the same stream")
	}
}

// The traffic must have the shape the README promises: every instance
// ends purged, bank periods are roughly 60% grants, no user dominates,
// and instance IDs never repeat.
func TestTrafficShape(t *testing.T) {
	tr := generateTraffic(fullSize, 0.6, defaultSeed)
	perUser := map[string]int{}
	total, grants, rbacDenied := 0, 0, 0
	for _, tmpl := range tr.bank {
		if last := tmpl.ops[len(tmpl.ops)-1]; !last.allowed || last.retained != 0 {
			t.Fatalf("a bank period does not end purged: %+v", last)
		}
		for _, o := range tmpl.ops {
			total++
			perUser[o.user]++
			if o.allowed {
				grants++
			}
			if o.phase == phaseRBAC {
				rbacDenied++
			}
		}
	}
	if share := float64(grants) / float64(total); share < 0.55 || share > 0.70 {
		t.Errorf("bank grant share is %.2f, want about 0.6", share)
	}
	if share := float64(rbacDenied) / float64(total); share < 0.003 || share > 0.03 {
		t.Errorf("bank RBAC-denied share is %.3f, want about 0.01", share)
	}
	for u, n := range perUser {
		if share := float64(n) / float64(total); share > 0.02 {
			t.Errorf("user %s carries %.1f%% of bank requests, want at most 2%%", u, share*100)
		}
	}
	violations := 0
	for _, tmpl := range tr.tax {
		if last := tmpl.ops[len(tmpl.ops)-1]; !last.allowed || last.retained != 0 || last.class != classLastStep {
			t.Fatalf("a tax process does not end purged: %+v", last)
		}
		if tmpl.ops[0].class != classFirstStep || !tmpl.ops[0].allowed {
			t.Fatalf("a tax process does not start with a granted first step: %+v", tmpl.ops[0])
		}
		if len(tmpl.ops) == 6 {
			violations++
		}
	}
	if share := float64(violations) / float64(len(tr.tax)); share < 0.05 || share > 0.15 {
		t.Errorf("%.2f of tax processes carry a violation, want about 0.1", share)
	}

	seen := map[string]bool{}
	for c := 0; c < 2; c++ {
		cur := newCursor(tr, c, 2)
		var last [2]string
		for i := 0; i < 100000; i++ {
			_, f, id := cur.next()
			if id != last[f] {
				key := string(rune('0'+f)) + id
				if seen[key] {
					t.Fatalf("instance ID %s of family %d is used twice", id, f)
				}
				seen[key] = true
				last[f] = id
			}
		}
	}
}

// The paper's Example 1 (§2, Figure 2): MMER({Teller,Auditor},2) over
// "Branch=*, Period=!" with CommitAudit as the last step.
func TestOracleExample1Bank(t *testing.T) {
	o := newOracle()
	steps := []struct {
		user, role string
		priv       privilege
		period     string
		want       bool
	}{
		{"alice", roleTeller, privHandleCash, "2006", true},
		{"alice", roleAuditor, privAudit, "2006", false}, // any branch, same period
		{"alice", roleTeller, privHandleCash, "2006", true},
		{"alice", roleAuditor, privAudit, "2007", true}, // another period is another instance
		{"bob", roleAuditor, privAudit, "2006", true},
		{"bob", roleTeller, privHandleCash, "2006", false},
		{"bob", roleAuditor, privCommitAudit, "2006", true}, // last step purges 2006
		{"alice", roleAuditor, privAudit, "2006", true},
	}
	for i, s := range steps {
		got, phase := o.decide(&bankOraclePolicy, s.period, oracleRequest{s.user, []string{s.role}, s.priv})
		if got != s.want {
			t.Errorf("step %d: %s as %s doing %s in %s: got %v (%s), want %v", i+1, s.user, s.role, s.priv.operation, s.period, got, phase, s.want)
		}
	}
	if n := o.retainedIn("2006"); n != 1 {
		t.Errorf("after the purge and one new grant 2006 holds %d records, want 1", n)
	}
}

// The paper's Example 2 (§2.4, §3): the tax-refund process with its two
// MMEP rules, first step prepareCheck, last step confirmCheck.
func TestOracleExample2TaxRefund(t *testing.T) {
	o := newOracle()
	steps := []struct {
		user, role string
		priv       privilege
		want       bool
	}{
		{"m9", roleManager, privApprove, true}, // before the first step MSoD does not apply, nothing is kept
		{"c1", roleClerk, privPrepare, true},
		{"m1", roleManager, privApprove, true},
		{"m1", roleManager, privApprove, false},
		{"m2", roleManager, privApprove, true},
		{"m1", roleManager, privCombine, false},
		{"m3", roleManager, privCombine, true},
		{"c1", roleClerk, privConfirm, false},
		{"c2", roleClerk, privConfirm, true},
	}
	for i, s := range steps {
		got, phase := o.decide(&taxOraclePolicy, "p1", oracleRequest{s.user, []string{s.role}, s.priv})
		if got != s.want {
			t.Errorf("step %d: %s doing %s: got %v (%s), want %v", i, s.user, s.priv.operation, got, phase, s.want)
		}
		if i == 0 && o.retainedIn("p1") != 0 {
			t.Error("a request before the first step was retained")
		}
	}
	if n := len(o.retained); n != 0 {
		t.Errorf("the last step left %d records", n)
	}
	if ok, phase := o.decide(&taxOraclePolicy, "p2", oracleRequest{"c1", []string{roleManager}, privPrepare}); ok || phase != phaseRBAC {
		t.Errorf("a manager preparing a check: got %v (%s), want an RBAC denial", ok, phase)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []int32{10, 20, 30, 40, 50}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0, 10, 4}, {50, 30, 2}, {75, 40, 1}, {90, 46, 1}, {100, 50, 0}} {
		got, beyond := percentile(sorted, c.p)
		if math.Abs(got-c.want) > 1e-9 || beyond != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if v, _ := percentile(nil, 50); v != 0 {
		t.Errorf("percentile of nothing is %v", v)
	}
}

// Reference values are Python's statistics.quantiles(v, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.0},
		{[]float64{10, 12, 11, 15, 9, 20, 13, 8, 10.5, 11.2}, 0.33783783783783783},
		{[]float64{3, 7}, 1.2},
		{[]float64{1, 2, 3}, 1.0},
		{[]float64{4}, 0},
	} {
		if got := quartileSpread(c.values); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.values, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	sum := func(self [numLayers]int64) (n int64) {
		for _, v := range self {
			n += v
		}
		return n
	}
	t.Run("sequential children", func(t *testing.T) {
		self, _, calls, root, ok := selfTimes([]span{
			{1, layerClient, 0, 100},
			{1, layerServer, 10, 90},
			{1, layerADIRead, 20, 30},
			{1, layerADIRead, 40, 45},
			{1, layerADIAppend, 50, 80},
			{1, layerWALSync, 55, 75},
		})
		if !ok || root != 100 {
			t.Fatalf("ok=%v root=%d", ok, root)
		}
		want := map[layer]int64{layerClient: 20, layerServer: 35, layerADIRead: 15, layerADIAppend: 10, layerWALSync: 20}
		for l, w := range want {
			if self[l] != w {
				t.Errorf("%s self = %d, want %d", layerNames[l], self[l], w)
			}
		}
		if calls[layerADIRead] != 2 || sum(self) != root {
			t.Errorf("calls=%d sum=%d", calls[layerADIRead], sum(self))
		}
	})
	t.Run("fan-out siblings overlap", func(t *testing.T) {
		// Two activation POSTs in flight at once, each with its shard
		// handler inside; one hop even contains the other.
		self, covered, _, root, ok := selfTimes([]span{
			{2, layerClient, 0, 200},
			{2, layerGateway, 10, 190},
			{2, layerHop, 20, 80},
			{2, layerServer, 30, 70},
			{2, layerHopActivation, 90, 170},
			{2, layerServerActivation, 100, 160},
			{2, layerHopActivation, 95, 150},
			{2, layerServerActivation, 105, 140},
		})
		if !ok || sum(self) != root {
			t.Fatalf("ok=%v: self times sum to %d, root is %d", ok, sum(self), root)
		}
		if covered[layerHopActivation] != 80 {
			t.Errorf("fan-out covers %d, want 80 (the union of both POSTs)", covered[layerHopActivation])
		}
		// Gateway: 180 long, minus the hop (60) and the fan-out (80).
		if self[layerGateway] != 40 {
			t.Errorf("gateway self = %d, want 40", self[layerGateway])
		}
		if got := self[layerHopActivation] + self[layerServerActivation]; got != 80 {
			t.Errorf("fan-out layers hold %d, want 80", got)
		}
	})
	t.Run("children clamped to the root", func(t *testing.T) {
		// The handler returns after the client has its answer; a span of
		// the previous request ends inside this one.
		self, _, _, root, ok := selfTimes([]span{
			{3, layerClient, 100, 200},
			{3, layerServer, 120, 230},
			{3, layerADIRead, 250, 260},
		})
		if !ok || sum(self) != root || self[layerServer] != 80 || self[layerADIRead] != 0 {
			t.Errorf("ok=%v self=%v root=%d", ok, self, root)
		}
	})
	t.Run("no root", func(t *testing.T) {
		if _, _, _, _, ok := selfTimes([]span{{4, layerServer, 0, 10}}); ok {
			t.Error("spans without a client span were accepted")
		}
	})
}

// The engine and the server find CtxAppender and Browser by type
// assertion on the store they are given; the wrapper must not hide them.
func TestTracedStoreForwards(t *testing.T) {
	p := probe{t: newTracer(), c: &counters{}}
	store, err := newTracedStore(p, adi.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	var rec adi.Recorder = store
	appender, ok := rec.(adi.CtxAppender)
	if !ok {
		t.Fatal("the wrapper hides adi.CtxAppender")
	}
	browser, ok := adi.BrowserFor(rec)
	if !ok {
		t.Fatal("the wrapper hides adi.Browser")
	}
	ctx := bctx.MustParse("Branch=b1, Period=p1")
	if err := appender.AppendCtx(context.Background(), adi.Record{User: "u1", Context: ctx, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if active, _ := rec.ContextActive(ctx); !active || rec.Len() != 1 {
		t.Error("an appended record is not visible through the wrapper")
	}
	if got := browser.UserRecords("u1", bctx.Universal); len(got) != 1 {
		t.Errorf("browser sees %d records, want 1", len(got))
	}
	if n, _ := rec.PurgeContext(ctx); n != 1 {
		t.Errorf("purged %d records, want 1", n)
	}
	if w := p.c.snapshot(); w[adiAppends] != 1 || w[adiReads] != 1 || w[adiPurges] != 1 {
		t.Errorf("counters: %+v", w)
	}

	dir := t.TempDir()
	fs := newModelFS(p, time.Microsecond)
	ds, err := adi.OpenDurableFS(dir, []byte("k"), true, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	durable, err := newTracedStore(p, ds)
	if err != nil {
		t.Fatal(err)
	}
	if durable.ctxInner == nil {
		t.Error("the durable store's AppendCtx is not forwarded")
	}
	before := p.c.snapshot()
	if err := durable.AppendCtx(context.Background(), adi.Record{User: "u1", Context: ctx, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if w := p.c.snapshot().minus(before); w[walSyncs] != 1 || w[walWrites] != 1 || w[walBytes] == 0 {
		t.Errorf("one durable append counted as %+v", w)
	}
}

// appendRequest writes JSON by hand; it must mean what encoding/json
// would have written.
func TestRequestEncoding(t *testing.T) {
	cfg := workloadConfig{System: systemShard, BankShare: 0.6, CredentialEvery: 8}
	fx, err := newFixture(cfg, smokeSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	cur := newCursor(fx.traffic, 0, 1)
	withCred := 0
	for i := 0; i < 2000; i++ {
		o, f, instance := cur.next()
		var got server.DecisionRequest
		if err := json.Unmarshal(appendRequest(nil, o, f, instance), &got); err != nil {
			t.Fatalf("request %d does not parse: %v", i, err)
		}
		if _, err := bctx.Parse(got.Context); err != nil {
			t.Fatalf("request %d context: %v", i, err)
		}
		if got.Operation != o.priv.operation || got.Target != o.priv.target || !strings.HasSuffix(got.Context, "="+instance) {
			t.Fatalf("request %d: %+v does not carry %+v", i, got, o)
		}
		if o.cred != nil {
			withCred++
			if len(got.Credentials) != 1 || got.Credentials[0].Holder != o.user || got.User != "" {
				t.Fatalf("request %d: credential form wrong: %+v", i, got)
			}
		} else if got.User != o.user || len(got.Roles) != 1 || got.Roles[0] != o.role {
			t.Fatalf("request %d: subject wrong: %+v", i, got)
		}
	}
	if withCred < 200 || withCred > 300 {
		t.Errorf("%d of 2000 requests carry a credential, want about 1 in 8", withCred)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01} }
	noisy := []float64{70, 100, 140}
	lower := metricSpec{Name: "decision_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "decisions_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{lower, steady(100), steady(105), verdictSame},
		{lower, steady(100), steady(115), verdictWorse},
		{lower, steady(100), steady(85), verdictBetter},
		{higher, steady(100), steady(85), verdictWorse},
		{higher, steady(100), steady(115), verdictBetter},
		{lower, steady(100), noisy, verdictUnresolved},
		{lower, []float64{5}, []float64{5.2}, verdictSame}, // single runs: no spread to show
	} {
		if got := compareValues(c.spec, "w", c.old, c.new); got.verdict != c.want {
			t.Errorf("%s %v -> %v: %s, want %s (change %.3f spread %.3f)", c.spec.Name, c.old, c.new, got.verdict, c.want, got.change, got.spread)
		}
	}
}

func TestCompareFilesFailsOnWorse(t *testing.T) {
	spec, _ := loadTestConfig(t)
	set := func(scale float64) *resultSet {
		rs := &resultSet{}
		for _, w := range spec.Workloads {
			r := &runResult{Workload: w.Name, Metrics: map[string]metricValue{}}
			for _, m := range spec.EndToEnd {
				r.Metrics[m.Name] = metricValue{Value: 100}
			}
			r.Metrics["decision_p50_us"] = metricValue{Value: 100 * scale}
			rs.Runs = append(rs.Runs, r)
		}
		return rs
	}
	dir := t.TempDir()
	for name, rs := range map[string]*resultSet{"old.json": set(1), "same.json": set(1.01), "worse.json": set(1.5)} {
		if err := writeJSON(filepath.Join(dir, name), rs); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compareFiles(&out, spec, filepath.Join(dir, "old.json"), filepath.Join(dir, "same.json")); err != nil {
		t.Errorf("an unchanged set compares as: %v", err)
	}
	if err := compareFiles(&out, spec, filepath.Join(dir, "old.json"), filepath.Join(dir, "worse.json")); err == nil {
		t.Error("a 50% slower p50 was not reported as worse")
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Error("the table does not name the worse rows")
	}
}

// workloads.json is input from outside the program: a value that would
// make a run measure something else, or nothing, is refused when read.
func TestWorkloadsFileIsChecked(t *testing.T) {
	entry := func(config string) string {
		return `{"workloads":[{"name":"w","why":"y","config":` + config + `}]}`
	}
	for name, c := range map[string]struct {
		file string
		ok   bool
	}{
		"valid":            {entry(`{"system":"gateway","bank_share":1,"slice_requests":10}`), true},
		"no slice size":    {entry(`{"system":"gateway","bank_share":1}`), false},
		"unknown system":   {entry(`{"system":"cluster","bank_share":1,"slice_requests":10}`), false},
		"share above one":  {entry(`{"system":"inproc","bank_share":1.5,"slice_requests":10}`), false},
		"negative cadence": {entry(`{"system":"shard","bank_share":0.5,"credential_every":-1,"slice_requests":10}`), false},
		"removed setting":  {entry(`{"system":"gateway","bank_share":1,"shards":5,"slice_requests":10}`), false},
		"removed block":    {`{"run":{"slices":0},"workloads":[]}`, false},
	} {
		path := filepath.Join(t.TempDir(), "workloads.json")
		if err := os.WriteFile(path, []byte(c.file), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadWorkloads(path); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", name, err, c.ok)
		}
	}
}

// BENCHMARK.json must stay inside the limits its reader enforces.
func TestBenchmarkJSONContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("key %q is missing", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("unexpected keys: %v", keys)
	}
	spec, _ := loadTestConfig(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed form", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (unit s, better lower) is missing")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	runs := 4 + 22*len(spec.Workloads)
	if perRun := 3420 / runs; spec.RunSeconds+10 > perRun {
		t.Errorf("%d runs of %d s plus set-up do not fit 3420 s (%d s per run)", runs, spec.RunSeconds, perRun)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// The smoke run drives every workload both ways through the full path:
// set-up with the cross-check, slices, ladder, traced slice, post-run
// checks. Every declared metric must be reported, and a planted wrong
// expectation must fail the run.
func TestSmoke(t *testing.T) {
	spec, wf := loadTestConfig(t)
	results, err := smoke(spec, wf, defaultSeed, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(spec.Workloads) {
		t.Fatalf("%d results for %d workloads", len(results), len(spec.Workloads))
	}
	byName := map[string]*runResult{}
	for _, r := range results {
		if r.Trace == 1 {
			byName[r.Workload] = r
		} else if want := measuredSlices * r.SliceRequests; r.Attempted != want {
			// The work is a count: whatever the speed, the same requests.
			t.Errorf("%s measured %d requests, want %d slices of %d", r.Workload, r.Attempted, measuredSlices, r.SliceRequests)
		}
		var out bytes.Buffer
		printResult(&out, spec, r)
		declared := spec.EndToEnd
		if r.Trace == 1 {
			declared = spec.PerLayer
		}
		for _, m := range declared {
			if !strings.Contains(out.String(), m.Name+" ") {
				t.Errorf("%s (trace %d) does not print %s", r.Workload, r.Trace, m.Name)
			}
		}
		if err := printDriverLine(&out, r); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(declared) {
			t.Errorf("%s (trace %d): driver line %+v", r.Workload, r.Trace, line)
		}
	}
	// The workloads separate the layers as designed.
	metric := func(w, m string) float64 { return byName[w].Metrics[m].Value }
	if v := metric("gateway_bank", "cluster.activation.posts_per_decision"); v != 0 {
		t.Errorf("gateway_bank fans out %.2f activation POSTs per decision, want 0", v)
	}
	if v := metric("gateway_tax", "cluster.activation.posts_per_decision"); v < 0.3 || v > 0.5 {
		t.Errorf("gateway_tax fans out %.2f activation POSTs per decision, want about 0.4", v)
	}
	if v := metric("shard_durable", "adi.wal.syncs_per_grant"); v < 0.9 || v > 1.1 {
		t.Errorf("shard_durable syncs the WAL %.2f times per grant, want about 1", v)
	}
	for _, w := range []string{"inproc_mixed", "gateway_bank", "gateway_tax"} {
		if v := metric(w, "adi.wal.syncs_per_grant"); v != 0 {
			t.Errorf("%s syncs a WAL (%.2f per grant) but has none", w, v)
		}
	}
	for _, w := range []string{"inproc_mixed", "shard_durable"} {
		if v := metric(w, "adi.records_leaked_end"); v != 0 {
			t.Errorf("%s leaks %.0f records on a single PDP", w, v)
		}
	}
	for w, r := range byName {
		if v := r.Metrics["trace.budget_residual_pct"].Value; math.Abs(v) > 1 {
			t.Errorf("%s: the layer budget misses the root span by %.2f%%", w, v)
		}
	}

	if _, err := smoke(spec, wf, defaultSeed, t.TempDir(), true); err == nil {
		t.Error("a run with a corrupted expectation did not fail")
	}
}
