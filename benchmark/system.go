package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/cluster"
	"msod/internal/credential"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/server"
	"msod/internal/trace"
)

// shard is one PDP assembled the way cmd/msodd assembles it
// (buildPDP + serverOptions), with the benchmark's wrappers placed
// around the store, the filesystem and the handler.
type shard struct {
	pdp     *pdp.PDP
	handler http.Handler
	store   *tracedStore
	durable *adi.DurableStore // nil for a memory shard
	trail   *audit.Writer     // nil without -trail
	dir     string
}

// Secrets of the durable shards. Fixed: they protect nothing, and the
// post-run reopen needs them again.
var (
	adiSecret = []byte("decision-benchmark-adi-secret")
	trailKey  = []byte("decision-benchmark-trail-key")
)

// buildShard assembles a shard as `msodd -handoff` does, and with
// durable as `msodd -adi DIR -adi-sync -trail DIR -handoff` does; every
// other flag at its default: event broker wired as the PDP's observer,
// explain ring, trace store. Two differences, neither on the decision
// path: the shard trusts the benchmark's credential authority (msodd
// has no flag for it, and without it no credential-bearing request
// could be served), and msodd's two scrape-time gauges over the durable
// store are left out (a metric family has exactly one emitter in this
// repository, and they are only read when /v1/metrics is scraped).
func buildShard(p probe, pol *policy.RBACPolicy, authority *credential.Authority, fs *modelFS, dir string, durable bool) (*shard, error) {
	sh := &shard{dir: dir}
	cfg := pdp.Config{Policy: pol}
	var inner adi.Recorder = adi.NewStore()
	if durable {
		ds, err := adi.OpenDurableFS(filepath.Join(dir, "adi"), adiSecret, true, fs)
		if err != nil {
			return nil, fmt.Errorf("open durable ADI: %w", err)
		}
		sh.durable, inner = ds, ds
		w, err := audit.NewWriterFS(filepath.Join(dir, "trail"), trailKey, audit.DefaultSegmentSize, fs)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("open trail: %w", err), sh.close())
		}
		sh.trail = w
		cfg.Trail = w
	}
	var err error
	if sh.store, err = newTracedStore(p, inner); err != nil {
		return nil, errors.Join(err, sh.close())
	}
	cfg.Store = sh.store
	broker := inspect.NewBroker(0)
	cfg.Observer = func(ev inspect.DecisionEvent) { broker.Publish(ev) }
	pd, err := pdp.New(cfg)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("build PDP: %w", err), sh.close())
	}
	if err := pd.TrustAuthority(authority); err != nil {
		return nil, errors.Join(err, sh.close())
	}
	sh.pdp = pd
	srv := server.New(pd,
		server.WithEventBroker(broker),
		server.WithTraceStore(trace.NewStore(trace.Config{})),
		server.WithHandoff())
	sh.handler = &tracedHandler{probe: p, inner: srv, decision: layerServer, activation: layerServerActivation}
	return sh, nil
}

// close releases the shard's files (msodd's cleanup, minus the
// compaction: the post-run reopen wants the WAL as the run left it).
func (sh *shard) close() error {
	var errs []error
	if sh.trail != nil {
		errs = append(errs, sh.trail.Close())
	}
	if sh.durable != nil {
		errs = append(errs, sh.durable.Close())
	}
	return errors.Join(errs...)
}

// listener serves a handler on a loopback port the way both daemons do
// (a plain http.Server) and stops it on close.
type listener struct {
	srv  *http.Server
	done chan error
	url  string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// system is a workload's system under test plus the handles the
// benchmark needs to drive, count and check it.
type system struct {
	probe
	fs  *modelFS
	dir string

	inproc    *pdp.PDP // system "inproc"
	frontURL  string   // systems "shard" and "gateway"
	shards    []*shard
	gateway   *cluster.Gateway
	hops      *http.Transport // the gateway's connections to its shards
	listeners []*listener
	client    *http.Client
}

// buildSystem assembles the system a workload names. dir is a fresh
// directory inside the checkout for WAL and trail files.
func buildSystem(cfg workloadConfig, pol *policy.RBACPolicy, authority *credential.Authority, dir string) (*system, error) {
	p := probe{t: newTracer(), c: &counters{}}
	sys := &system{probe: p, dir: dir, fs: newModelFS(p, flushModel)}
	fail := func(err error) (*system, error) {
		sys.close()
		return nil, err
	}
	switch cfg.System {
	case systemInproc:
		// Memory ADI, no trail, no observer: pdp.New's own defaults.
		store, err := newTracedStore(p, adi.NewStore())
		if err != nil {
			return fail(err)
		}
		pd, err := pdp.New(pdp.Config{Policy: pol, Store: store})
		if err != nil {
			return fail(err)
		}
		sys.inproc = pd
		sys.shards = []*shard{{pdp: pd, store: store}}
		return sys, nil
	case systemShard:
		sh, err := buildShard(p, pol, authority, sys.fs, filepath.Join(dir, "shard"), true)
		if err != nil {
			return fail(err)
		}
		sys.shards = []*shard{sh}
		l, err := listen(sh.handler)
		if err != nil {
			return fail(err)
		}
		sys.listeners = append(sys.listeners, l)
		sys.frontURL = l.url
	case systemGateway:
		var topology []cluster.Shard
		for i := 0; i < gatewayShards; i++ {
			id := fmt.Sprintf("s%d", i)
			sh, err := buildShard(p, pol, authority, sys.fs, filepath.Join(dir, id), false)
			if err != nil {
				return fail(err)
			}
			sys.shards = append(sys.shards, sh)
			l, err := listen(sh.handler)
			if err != nil {
				return fail(err)
			}
			sys.listeners = append(sys.listeners, l)
			topology = append(topology, cluster.Shard{ID: id, BaseURL: l.url})
		}
		// msodgw leaves Config.HTTPClient nil, which means
		// http.DefaultTransport; the clone keeps its settings and adds
		// the dial counter and the hop spans.
		base := http.DefaultTransport.(*http.Transport).Clone()
		base.DialContext = countingDialer(p.c)
		sys.hops = base
		// Every other field is msodgw's flag default.
		gw, err := cluster.New(cluster.Config{
			Shards:          topology,
			VirtualNodes:    cluster.DefaultVirtualNodes,
			Timeout:         5 * time.Second,
			Retries:         2,
			RetryBackoff:    25 * time.Millisecond,
			FailAfter:       2,
			BreakerAfter:    5,
			BreakerCooldown: 5 * time.Second,
			HTTPClient: &http.Client{Transport: &tracedTransport{probe: p, inner: base,
				decision: layerHop, activation: layerHopActivation, count: true}},
			Logger:         obsv.NewLogger(os.Stderr, "msodgw"),
			SlowLog:        time.Duration(1<<63 - 1),
			ShedRetryAfter: time.Second,
			HandoffTimeout: 2 * time.Minute,
		})
		if err != nil {
			return fail(err)
		}
		sys.gateway = gw
		gw.Checker().CheckNow()
		for id, st := range gw.Checker().Statuses() {
			if st.State != cluster.Up {
				return fail(fmt.Errorf("shard %s is %s after the first probe: %s", id, st.State, st.LastErr))
			}
		}
		gw.Checker().Start(5 * time.Second)
		l, err := listen(&tracedHandler{probe: p, inner: gw, decision: layerGateway, activation: numLayers})
		if err != nil {
			return fail(err)
		}
		sys.listeners = append(sys.listeners, l)
		sys.frontURL = l.url
	default:
		return fail(fmt.Errorf("unknown system %q", cfg.System))
	}
	sys.client = &http.Client{Transport: &tracedTransport{probe: p,
		inner:    &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64, DisableCompression: true},
		decision: layerClientHop, activation: numLayers}}
	return sys, nil
}

// close stops every server and goroutine the system started and closes
// its files. It is safe on a partly built system.
func (sys *system) close() error {
	if sys.client != nil {
		sys.client.CloseIdleConnections()
	}
	if sys.gateway != nil {
		sys.gateway.Close()
		sys.hops.CloseIdleConnections()
	}
	for _, l := range sys.listeners {
		l.close()
	}
	var errs []error
	for _, sh := range sys.shards {
		errs = append(errs, sh.close())
	}
	sys.listeners, sys.shards, sys.gateway = nil, nil, nil
	return errors.Join(errs...)
}

// retained sums Len() over the system's stores.
func (sys *system) retained() int {
	n := 0
	for _, sh := range sys.shards {
		n += sh.store.Len()
	}
	return n
}

// userHistoryMax is the longest per-user record list any store holds.
func (sys *system) userHistoryMax() int {
	longest := 0
	for _, sh := range sys.shards {
		for _, u := range sh.store.UserIDs() {
			longest = max(longest, len(sh.store.UserRecords(u, bctx.Universal)))
		}
	}
	return longest
}
