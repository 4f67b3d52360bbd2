package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/obsv"
	"msod/internal/server"
)

// runOptions is one invocation: one workload, one seed, traced or not.
type runOptions struct {
	workload workloadSpec
	seed     int64
	// seconds sizes the run: the work is slice_requests scaled by
	// seconds over run_seconds, a count, so that every commit does the
	// same work. It takes about this long at the commit that sized it.
	seconds  float64
	trace    bool
	outDir   string // scratch and trace output, inside the checkout
	traceOut string // JSON-lines span dump of a traced run ("" = none)
	// smoke shrinks set-up repeats, templates and the ladder (smokeSize).
	smoke bool
	// corrupt flips one stamped expectation after set-up, to prove
	// that a wrong decision is noticed and fails the run.
	corrupt bool
}

func (o runOptions) size() sizing {
	if o.smoke {
		return smokeSize
	}
	return fullSize
}

// sliceRequests is the request count of one measured slice of a run of
// the given seconds.
func sliceRequests(spec *benchmarkSpec, w workloadSpec, seconds float64) int {
	n := float64(w.Config.SliceRequests) * seconds / float64(spec.RunSeconds)
	return max(int(n+0.5), 1)
}

// metricValue is one reported metric. For metrics taken per slice,
// Value is the median and the slices are kept beside it so the noise
// is in the file.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Min    *float64  `json:"min,omitempty"`
	Max    *float64  `json:"max,omitempty"`
	Slices []float64 `json:"slices,omitempty"`
	// Samples is the number of latency samples behind each slice of a
	// percentile metric, and Beyond how many of them lie above it.
	Samples []int `json:"samples,omitempty"`
	Beyond  []int `json:"beyond,omitempty"`
}

// runResult is the outcome of one run.
type runResult struct {
	Workload       string                 `json:"workload"`
	Seed           int64                  `json:"seed"`
	Trace          int                    `json:"trace"`
	Seconds        float64                `json:"seconds"`
	SliceRequests  int                    `json:"slice_requests"`
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	WrongDecisions int                    `json:"wrong_decisions"`
	Errors         int                    `json:"errors"`
	Problems       []string               `json:"problems,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`
}

// metricSet collects a run's metrics against the declared list, so a
// metric that is not declared, or declared and not reported, is an
// error rather than a silent gap.
type metricSet struct {
	specs  []metricSpec
	values map[string]metricValue
	err    error
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, values: map[string]metricValue{}}
}

func (m *metricSet) put(name string, v metricValue) {
	for _, s := range m.specs {
		if s.Name == name {
			v.Unit = s.Unit
			m.values[name] = v
			return
		}
	}
	if m.err == nil {
		m.err = fmt.Errorf("metric %q is reported but not declared in BENCHMARK.json", name)
	}
}

func (m *metricSet) set(name string, value float64) { m.put(name, metricValue{Value: value}) }

// setSlices reports the median over per-slice values.
func (m *metricSet) setSlices(name string, perSlice []float64) {
	lo, hi := slices.Min(perSlice), slices.Max(perSlice)
	m.put(name, metricValue{Value: median(perSlice), Min: &lo, Max: &hi, Slices: perSlice})
}

func (m *metricSet) finish() (map[string]metricValue, error) {
	if m.err != nil {
		return nil, m.err
	}
	for _, s := range m.specs {
		if _, ok := m.values[s.Name]; !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not reported", s.Name)
		}
	}
	return m.values, nil
}

// runWorkload performs one run: set-up (repeated, timed), then either
// the measured slices or the ladder and the traced slice, then the
// post-run checks.
func runWorkload(spec *benchmarkSpec, o runOptions) (*runResult, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	repeats := o.size().setupRepeats
	if o.trace {
		repeats = 1 // setup_s is an end-to-end metric
	}
	var (
		fx     *fixture
		sys    *system
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		// Every repeat starts from a collected heap, so a set-up is not
		// timed with the garbage of the one before it.
		runtime.GC()
		started := time.Now()
		if fx, err = newFixture(o.workload.Config, o.size(), o.seed); err != nil {
			return nil, err
		}
		if sys, err = buildSystem(o.workload.Config, fx.pol, fx.authority,
			filepath.Join(scratch, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(started).Seconds())
	}
	defer sys.close()
	if o.corrupt {
		first := &fx.traffic.tax[0].ops[0]
		first.allowed, first.phase = false, phaseMSoD
		first = &fx.traffic.bank[0].ops[0]
		first.allowed, first.phase = !first.allowed, phaseMSoD
	}

	perSlice := sliceRequests(spec, o.workload, o.seconds)
	res := &runResult{Workload: o.workload.Name, Seed: o.seed, Seconds: o.seconds, SliceRequests: perSlice}
	var (
		metrics *metricSet
		seen    tally
		expect  int // records a single PDP retains once the clients stop
	)
	if o.trace {
		res.Trace = 1
		metrics = newMetricSet(spec.PerLayer)
		if seen, expect, err = traced(sys, fx, o, perSlice, metrics); err != nil {
			return nil, err
		}
	} else {
		metrics = newMetricSet(spec.EndToEnd)
		metrics.setSlices("setup_s", setups)
		if seen, expect, err = measured(sys, fx, perSlice, metrics); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Errors, res.WrongDecisions, res.Failed = seen.attempted, seen.errors, seen.wrong, seen.failed()
	if seen.firstBad != "" {
		res.Problems = append(res.Problems, "first bad answer: "+seen.firstBad)
	}

	// Post-run checks. A single PDP must retain exactly what the oracle
	// retains; behind the gateway the difference is the per-shard-purge
	// leak and is reported, not asserted.
	retained := sys.retained()
	if o.workload.Config.System != systemGateway && retained != expect {
		res.Problems = append(res.Problems, fmt.Sprintf("retained ADI holds %d records, the oracle %d", retained, expect))
	}
	if o.trace {
		metrics.set("adi.records_retained_end", float64(retained))
		metrics.set("adi.records_leaked_end", float64(retained-expect))
		metrics.set("adi.user_history_max_len", float64(sys.userHistoryMax()))
		retries, unavailable, err := sys.scrapeGateway()
		if err != nil {
			return nil, err
		}
		metrics.set("cluster.retries_total", retries)
		metrics.set("cluster.unavailable_total", unavailable)
	}
	durable := sys.shards
	if err := sys.close(); err != nil {
		return nil, err
	}
	reopenMs, verifyMs, problems := reopenDurable(sys.fs, durable)
	res.Problems = append(res.Problems, problems...)
	if o.trace {
		metrics.set("adi.durable.reopen_ms", reopenMs)
		metrics.set("audit.verify_ms", verifyMs)
		if o.traceOut != "" {
			if err := sys.t.dump(o.traceOut, traceDumpRequests); err != nil {
				return nil, err
			}
		}
	}
	if res.Metrics, err = metrics.finish(); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0 && len(res.Problems) == 0
	return res, nil
}

// reopenDurable closes the loop on durability: every durable shard's
// store is opened again from its files and must hold what it held, and
// its audit trail must verify clean.
func reopenDurable(fs *modelFS, shards []*shard) (reopenMs, verifyMs float64, problems []string) {
	for _, sh := range shards {
		if sh.durable == nil {
			continue
		}
		want := sh.durable.Len()
		started := time.Now()
		ds, err := adi.OpenDurableFS(filepath.Join(sh.dir, "adi"), adiSecret, true, fs)
		reopenMs += float64(time.Since(started)) / float64(time.Millisecond)
		if err != nil {
			problems = append(problems, fmt.Sprintf("reopen durable ADI: %v", err))
			continue
		}
		if got := ds.Len(); got != want {
			problems = append(problems, fmt.Sprintf("durable ADI reopened with %d records, closed with %d", got, want))
		}
		if err := ds.Close(); err != nil {
			problems = append(problems, fmt.Sprintf("close reopened ADI: %v", err))
		}
		started = time.Now()
		r, err := audit.NewReader(filepath.Join(sh.dir, "trail"), trailKey)
		if err == nil {
			_, err = r.Verify()
		}
		verifyMs += float64(time.Since(started)) / float64(time.Millisecond)
		if err != nil {
			problems = append(problems, fmt.Sprintf("audit trail does not verify: %v", err))
		}
	}
	return reopenMs, verifyMs, problems
}

// scrapeGateway reads the two gateway counters that feed error_share
// from one /v1/metrics scrape; zero without a gateway.
func (sys *system) scrapeGateway() (retries, unavailable float64, err error) {
	if sys.gateway == nil {
		return 0, 0, nil
	}
	resp, err := sys.client.Get(sys.frontURL + server.MetricsPath)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		series, ok := obsv.ParseSeries(sc.Text())
		if !ok {
			continue
		}
		switch series.Name {
		case "msodgw_retries_total":
			retries = series.Value
			found++
		case "msodgw_unavailable_total":
			unavailable = series.Value
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("gateway scrape has %d of the 2 msodgw_* counters looked for", found)
	}
	return retries, unavailable, nil
}

// newClients makes n closed-loop clients with room for a whole slice
// each, so growing the sample buffers never counts as the system's
// allocation.
func newClients(sys *system, fx *fixture, n, perSlice int) []*client {
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = &client{
			cur:   newCursor(fx.traffic, i, n),
			d:     sys.newDecider(),
			lat:   make([]int32, 0, perSlice),
			class: make([]uint8, 0, perSlice),
		}
	}
	return clients
}

// drive has the clients answer requests requests between them — each
// takes its next one from the shared count when its previous one was
// answered — and waits for all. The work is a count, not a duration:
// a faster commit finishes sooner, it does not do more.
func drive(clients []*client, t *tracer, traced bool, requests int) time.Duration {
	var pool atomic.Int64
	pool.Store(int64(requests))
	started := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(t, traced, &pool)
		}(c)
	}
	wg.Wait()
	return time.Since(started)
}

func resetClients(clients []*client) {
	for _, c := range clients {
		c.lat, c.class, c.tally = c.lat[:0], c.class[:0], tally{}
	}
}

// latencies gathers the clients' samples of the current slice whose
// class has all bits of want set and none of avoid, sorted.
func latencies(clients []*client, scratch []int32, want, avoid uint8) []int32 {
	scratch = scratch[:0]
	for _, c := range clients {
		for i, ns := range c.lat {
			if cl := c.class[i]; cl&want == want && cl&avoid == 0 {
				scratch = append(scratch, ns)
			}
		}
	}
	slices.Sort(scratch)
	return scratch
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const usPerNs = 1e-3

// warmup is the discarded start of the stream: a quarter of a slice.
func warmup(perSlice int) int { return max(perSlice/4, 1) }

// measured is an untraced run: warm-up, then measuredSlices slices of
// perSlice requests of one continuous stream, every end-to-end metric
// the median over the slices.
func measured(sys *system, fx *fixture, perSlice int, m *metricSet) (tally, int, error) {
	clients := newClients(sys, fx, numClients, perSlice)
	drive(clients, sys.t, false, warmup(perSlice))

	var (
		total                 tally
		rate, p50, allocs, ab []float64
		samples, beyond       []int
		scratch               = make([]int32, 0, perSlice)
		before, after         runtime.MemStats
	)
	for s := 0; s < measuredSlices; s++ {
		resetClients(clients)
		runtime.ReadMemStats(&before)
		wall := drive(clients, sys.t, false, perSlice)
		runtime.ReadMemStats(&after)

		var slice tally
		for _, c := range clients {
			slice.add(c.tally)
		}
		total.add(slice)
		done := float64(slice.attempted - slice.failed())
		if done == 0 {
			return total, 0, fmt.Errorf("slice %d completed no correct decision; first bad answer: %s", s, slice.firstBad)
		}
		sorted := latencies(clients, scratch, 0, 0)
		v50, b50 := percentile(sorted, 50)
		rate = append(rate, done/wall.Seconds())
		p50 = append(p50, v50*usPerNs)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/done)
		ab = append(ab, float64(after.TotalAlloc-before.TotalAlloc)/done)
		samples = append(samples, len(sorted))
		beyond = append(beyond, b50)
	}
	m.setSlices("decisions_per_s", rate)
	m.setSlices("decision_p50_us", p50)
	m.setSlices("allocs_per_decision", allocs)
	m.setSlices("alloc_bytes_per_decision", ab)
	v := m.values["decision_p50_us"]
	v.Samples, v.Beyond = samples, beyond
	m.values["decision_p50_us"] = v

	// Live heap of the whole process once the last slice is over: the
	// clients' sample buffers are dropped first, two collections empty
	// the sync.Pool victim caches. What remains is the system (retained
	// ADI, rings, caches, idle connections) plus the fixture.
	expect := 0
	for _, c := range clients {
		expect += c.cur.expectRetained()
	}
	clients, scratch = nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The fixture is kept on purpose: a few constant megabytes under the
	// system's own few hundred kilobytes keep the metric away from zero,
	// where the records of two half-played instances would be its noise.
	runtime.KeepAlive(fx)
	m.set("heap_live_mb_end", float64(after.HeapAlloc)/1e6)
	return total, expect, nil
}

// traced is the per-layer run: the ladder, then one client for one
// slice untraced and one traced (at most traceMaxRequests). Counters
// cover both, self times the traced slice, client latency classes the
// untraced one.
func traced(sys *system, fx *fixture, o runOptions, perSlice int, m *metricSet) (tally, int, error) {
	if err := runLadder(sys, fx, o, m); err != nil {
		return tally{}, 0, fmt.Errorf("ladder: %w", err)
	}
	clients := newClients(sys, fx, 1, perSlice)
	c := clients[0]
	drive(clients, sys.t, false, warmup(perSlice))
	resetClients(clients)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	base := sys.c.snapshot()

	cpu0 := cpuSeconds()
	drive(clients, sys.t, false, perSlice)
	cpu := cpuSeconds() - cpu0
	total := c.tally
	if answered := total.attempted - total.failed(); answered > 0 {
		// The whole process: client, gateway and shards share it.
		m.set("runtime.cpu_us_per_decision", cpu*1e6/float64(answered))
	}
	scratch := make([]int32, 0, len(c.lat))
	all := latencies(clients, scratch, 0, 0)
	untraced50, _ := percentile(all, 50)
	p99, _ := percentile(all, 99)
	p999, _ := percentile(all, 99.9)
	m.set("client.decision_p99_us", p99*usPerNs)
	m.set("client.decision_p999_us", p999*usPerNs)
	for name, sel := range map[string][2]uint8{
		"client.grant_p50_us":     {sampleGrant, 0},
		"client.deny_p50_us":      {0, sampleGrant},
		"client.firststep_p50_us": {classFirstStep << 1, 0},
		"client.laststep_p50_us":  {classLastStep << 1, 0},
	} {
		v, _ := percentile(latencies(clients, scratch, sel[0], sel[1]), 50)
		m.set(name, v*usPerNs)
	}

	resetClients(clients)
	sys.t.on.Store(true)
	drive(clients, sys.t, true, min(perSlice, traceMaxRequests))
	sys.t.on.Store(false)
	total.add(c.tally)
	traced50, _ := percentile(latencies(clients, scratch, 0, 0), 50)
	runtime.ReadMemStats(&after)
	work := sys.c.snapshot().minus(base)

	done := float64(total.attempted - total.failed())
	if done == 0 || untraced50 == 0 {
		return total, 0, fmt.Errorf("the traced run completed no correct decision; first bad answer: %s", total.firstBad)
	}
	grants := float64(max(total.grants, 1))
	m.set("client.error_share", float64(total.failed())/float64(total.attempted))
	m.set("server.wire_bytes_per_decision", float64(total.wire)/done)
	m.set("core.matched_policies_per_decision", float64(total.matched)/done)
	m.set("cluster.hop.dials_per_1k", float64(work[hopDials])*1000/done)
	m.set("cluster.hop.bytes_per_decision", float64(work[hopBytes])/done)
	m.set("cluster.activation.posts_per_decision", float64(work[hopActivations])/done)
	m.set("adi.wal.syncs_per_grant", float64(work[walSyncs])/grants)
	m.set("adi.wal.bytes_per_grant", float64(work[walBytes])/grants)
	m.set("audit.trail.bytes_per_decision", float64(work[trailBytes])/done)
	m.set("audit.trail.syncs_per_decision", float64(work[trailSyncs])/done)
	m.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	m.set("runtime.gc_pause_total_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	m.set("trace.overhead_pct", (traced50-untraced50)/untraced50*100)

	b := sys.t.budget()
	if b.requests == 0 {
		return total, 0, fmt.Errorf("the traced slice recorded no complete request")
	}
	perDecision := func(ns int64) float64 { return float64(ns) * usPerNs / float64(b.requests) }
	perCall := func(l layer) float64 {
		if b.calls[l] == 0 {
			return 0
		}
		return float64(b.self[l]) * usPerNs / float64(b.calls[l])
	}
	var attributed int64
	for _, ns := range b.self {
		attributed += ns
	}
	m.set("trace.budget_residual_pct", float64(b.root-attributed)/float64(b.root)*100)
	m.set("client.self_us", perDecision(b.self[layerClient]))
	m.set("client.hop.rtt_us", perDecision(b.self[layerClientHop]))
	m.set("cluster.gateway.self_us", perDecision(b.self[layerGateway]))
	m.set("cluster.hop.rtt_us", perDecision(b.self[layerHop]))
	m.set("cluster.activation.fanout_us", perDecision(b.covered[layerHopActivation]))
	m.set("server.handler.self_us", perDecision(b.self[layerServer]))
	m.set("adi.read.calls_per_decision", float64(b.calls[layerADIRead])/float64(b.requests))
	m.set("adi.read.busy_us", perDecision(b.self[layerADIRead]))
	m.set("adi.append_us", perCall(layerADIAppend))
	m.set("adi.purge_us", perCall(layerADIPurge))
	m.set("adi.wal.write_us", perDecision(b.self[layerWALWrite]))
	m.set("adi.wal.sync_wait_us", perDecision(b.self[layerWALSync]))
	m.set("audit.trail.write_us", perDecision(b.self[layerTrailWrite]+b.self[layerTrailSync]))
	return total, c.cur.expectRetained(), nil
}
