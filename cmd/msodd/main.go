// Command msodd runs an MSoD-enforcing PDP as an HTTP service: the
// distributed deployment of §4/§5. It loads an RBACPolicy XML document
// (with its embedded MSoDPolicySet), recovers or opens the retained ADI
// (audit-trail replay, encrypted snapshot, or the self-recovering
// durable store), and serves the decision, advice and management
// endpoints until SIGINT/SIGTERM, shutting down gracefully. SIGHUP
// hot-reloads the policy file over the live retained ADI; a failed
// reload keeps the previous policy serving.
//
// Usage:
//
//	msodd -policy policy.xml -addr :8443 \
//	      -trail ./trail -trail-key-file key.txt \
//	      -recover trail
//
//	msodd -policy policy.xml -adi ./adi -adi-secret-file secret.txt
//
// Endpoints:
//
//	POST /v1/decision              access control decisions
//	POST /v1/advice                advisory (side-effect-free) decisions
//	POST /v1/management            retained-ADI management (§4.3)
//	GET  /v1/health                liveness + policy ID
//	GET  /v1/metrics               decision counters (Prometheus text format)
//	GET  /v1/state/users/{user}    live retained-ADI and constraint progress
//	GET  /v1/state/contexts/{bc}   per-context state (wildcards allowed)
//	GET  /v1/events                decision event stream (SSE)
//	GET  /v1/explain/{requestID}   decision provenance: rules, k-of-m state, governing constraint
//	GET  /v1/traces/{traceID}      retained span tree of a tail-sampled decision
//	GET  /v1/handoff/users         retained-ADI user list (requires -handoff)
//	POST /v1/handoff/import        resharding subtree import (requires -handoff)
//	POST /v1/handoff/release       post-cutover donor purge (requires -handoff)
//	GET  /v1/ctx/activation        running FirstStep-gated context instances
//	POST /v1/ctx/activation        cluster activation fan-in: mark instances
//	                               started elsewhere (durable, deny-safe)
//
// The decision event stream is always on. The audit-chain sentinel
// (-sentinel-interval) incrementally re-verifies the HMAC chain while
// the daemon runs; with -sentinel-fail-closed a detected tamper makes
// the daemon refuse further decisions.
//
// -verify-policies gates boot (and every SIGHUP reload) on the policy
// model checker: error-severity findings — unsatisfiable or
// unfinishable business methods, unpurgeable contexts — refuse the
// policy outright (fail closed), warnings are logged, and the outcome
// is surfaced on /v1/health and the msod_policy_verification_* metric
// families. A failed verification during reload keeps the previous,
// verified policy serving.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/policycheck"
	"msod/internal/replica"
	"msod/internal/server"
	"msod/internal/trace"
)

// options are the parsed command-line settings.
type options struct {
	policyPath         string
	addr               string
	trailDir           string
	keyFile            string
	recover            string
	snapPath           string
	snapSecret         string
	segSize            int
	adiDir             string
	adiSecret          string
	adiSync            bool
	maxInFlight        int
	shedRetryAfter     time.Duration
	handoff            bool
	slowLog            time.Duration
	pprofAddr          string
	pprofAllowRemote   bool
	sentinelInterval   time.Duration
	sentinelFailClosed bool
	replicaOf          string
	maxStaleness       time.Duration
	explainCapacity    int
	traceCapacity      int
	traceSample        int
	traceSlow          time.Duration
	sloLatencyP99      time.Duration
	sloGoal            float64
	sloWindow          time.Duration
	verifyPolicies     bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("msodd", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.policyPath, "policy", "", "path to the RBACPolicy XML document (required)")
	fs.StringVar(&o.addr, "addr", ":8443", "listen address")
	fs.StringVar(&o.trailDir, "trail", "", "audit trail directory (empty disables the trail)")
	fs.StringVar(&o.keyFile, "trail-key-file", "", "file holding the trail HMAC key")
	fs.StringVar(&o.recover, "recover", "none", "retained-ADI recovery: none | trail | snapshot")
	fs.StringVar(&o.snapPath, "snapshot", "", "encrypted snapshot path (for -recover snapshot)")
	fs.StringVar(&o.snapSecret, "snapshot-secret-file", "", "file holding the snapshot secret")
	fs.IntVar(&o.segSize, "trail-segment", 4096, "audit trail entries per segment")
	fs.StringVar(&o.adiDir, "adi", "", "durable retained-ADI directory (self-recovering; overrides -recover)")
	fs.StringVar(&o.adiSecret, "adi-secret-file", "", "file holding the durable ADI secret")
	fs.BoolVar(&o.adiSync, "adi-sync", false, "fsync every durable-ADI mutation")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "shed decision/management requests beyond this many in flight (0 = unbounded)")
	fs.DurationVar(&o.shedRetryAfter, "shed-retry-after", time.Second, "Retry-After hint on shed (503) responses")
	fs.BoolVar(&o.handoff, "handoff", false, "trust an msodgw gateway with the retained ADI: serve the resharding handoff endpoints (the import endpoint replaces per-user history) and close the context instances its requests name in the Msod-Close header")
	fs.DurationVar(&o.slowLog, "slowlog", 0, "log decisions slower than this (0 disables; 1ns logs every decision)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (empty disables; binds loopback unless -pprof-allow-remote)")
	fs.BoolVar(&o.pprofAllowRemote, "pprof-allow-remote", false, "allow -pprof to bind a non-loopback address (profiling endpoints expose process internals)")
	fs.DurationVar(&o.sentinelInterval, "sentinel-interval", 0, "audit-chain sentinel check interval (0 disables; needs -trail)")
	fs.BoolVar(&o.sentinelFailClosed, "sentinel-fail-closed", false, "refuse decisions once the sentinel detects audit-chain tampering")
	fs.StringVar(&o.replicaOf, "replica-of", "", "run as an advisory read replica of the shard at this base URL (no authoritative decisions)")
	fs.DurationVar(&o.maxStaleness, "max-staleness", 0, "replica staleness bound: refuse answers once the owner has been silent this long (0 = 30s default; negative disables)")
	fs.IntVar(&o.explainCapacity, "explain-capacity", 0, "decision provenance records retained for /v1/explain (0 = 1024 default; negative disables explain)")
	fs.IntVar(&o.traceCapacity, "trace-capacity", 0, "tail-sampled span trees retained for /v1/traces (0 = 1024 default; negative disables trace retention)")
	fs.IntVar(&o.traceSample, "trace-sample", 0, "keep a deterministic 1-in-N sample of fast grants' span trees (0 keeps none; refusals, errors and slow decisions are always kept)")
	fs.DurationVar(&o.traceSlow, "trace-slow-threshold", 0, "always keep span trees of decisions slower than this (0 disables the slow criterion)")
	fs.DurationVar(&o.sloLatencyP99, "slo-latency-p99", 0, "declared per-decision latency objective; enables the msod_slo_* metric families (0 disables the SLO layer)")
	fs.Float64Var(&o.sloGoal, "slo-goal", 0.999, "declared good-request target fraction for the SLO layer")
	fs.DurationVar(&o.sloWindow, "slo-window", time.Hour, "rolling error-budget window for the SLO layer (fast burn-rate window is 1/12 of this)")
	fs.BoolVar(&o.verifyPolicies, "verify-policies", false, "model-check the policy at boot and on reload; refuse to serve on error-severity findings (fail closed)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.policyPath == "" {
		return nil, errors.New("msodd: -policy is required")
	}
	if o.replicaOf != "" {
		// A replica holds no authority and writes nothing: every flag
		// implying authoritative state is a configuration error, not a
		// silent no-op.
		switch {
		case o.trailDir != "":
			return nil, errors.New("msodd: -replica-of conflicts with -trail (replicas write no audit trail)")
		case o.adiDir != "":
			return nil, errors.New("msodd: -replica-of conflicts with -adi (the mirror is rebuilt from the owner, never persisted)")
		case o.recover != "none":
			return nil, errors.New("msodd: -replica-of conflicts with -recover (replicas bootstrap from the owner's snapshot)")
		case o.snapPath != "" || o.snapSecret != "":
			return nil, errors.New("msodd: -replica-of conflicts with -snapshot")
		case o.sentinelInterval > 0:
			return nil, errors.New("msodd: -replica-of conflicts with -sentinel-interval (replicas hold no trail to verify)")
		case o.handoff:
			return nil, errors.New("msodd: -replica-of conflicts with -handoff (replicas hold no authoritative history to stream)")
		}
	}
	if o.handoff && o.recover == "trail" && o.adiDir == "" {
		// A cluster shard's retained ADI also changes by what the gateway
		// tells it — peers' activations and closes, handoff imports and
		// releases, management purges — and the trail records none of it:
		// replay re-evaluates granted decisions only, so the shard would come
		// back without the instances its peers opened, and grant in them
		// unrecorded. -adi (which overrides -recover) keeps all of it.
		return nil, errors.New("msodd: -recover trail conflicts with -handoff (trail replay restores granted decisions only, not the activations, closes and handoffs a cluster shard is told of; use -adi)")
	}
	return o, nil
}

// loadPolicy reads, parses and lints the policy file. With verify on
// (-verify-policies), the full model check runs instead — honouring the
// document's msod:ignore suppressions — and error-severity findings
// refuse the policy (fail closed); the outcome lands in status when one
// is supplied.
func loadPolicy(path string, verify bool, status *server.VerificationStatus, logf func(format string, args ...any)) (*policy.RBACPolicy, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read policy: %w", err)
	}
	if verify {
		res, err := policycheck.CheckSource(raw, policycheck.Config{})
		if err != nil {
			return nil, fmt.Errorf("parse policy: %w", err)
		}
		for _, f := range res.Findings {
			logf("msodd: policy %s", f)
		}
		if n := res.Errors(); n > 0 {
			return nil, fmt.Errorf("policy verification failed: %d error-severity finding(s); refusing to serve an unenforceable policy (fail closed)", n)
		}
		if status != nil {
			status.Set(res.Warnings(), res.Suppressed)
		}
		return res.Policy, nil
	}
	pol, err := policy.ParseRBACPolicy(raw)
	if err != nil {
		return nil, fmt.Errorf("parse policy: %w", err)
	}
	// Surface lint findings; they do not block.
	if findings, err := policy.Lint(pol); err == nil {
		for _, f := range findings {
			logf("msodd: policy %s", f)
		}
	}
	return pol, nil
}

// deps are the long-lived runtime dependencies a PDP is built over;
// they survive policy hot-reloads.
type deps struct {
	store adi.Recorder
	trail *audit.Writer
	// trailKey is retained for the audit-chain sentinel, which verifies
	// the same trail the writer appends to.
	trailKey []byte
	// broker fans decision events out to /v1/events subscribers; it is
	// always on and carries over policy reloads so subscribers keep
	// their stream.
	broker *inspect.Broker
	// sentinel, when enabled, continuously verifies the audit chain.
	sentinel *inspect.Sentinel
	// verify, when -verify-policies is on, carries the latest boot-gate
	// outcome to the server's health and metrics surfaces across
	// reloads.
	verify *server.VerificationStatus
}

// observer adapts the broker to the PDP's Observer hook.
func (d *deps) observer() func(inspect.DecisionEvent) {
	return func(ev inspect.DecisionEvent) { d.broker.Publish(ev) }
}

// buildPDP assembles the PDP from options, returning the reusable
// dependencies and a cleanup function that flushes stores and trails on
// shutdown.
func buildPDP(o *options, logf func(format string, args ...any)) (*pdp.PDP, *deps, func(), error) {
	var verifyStatus *server.VerificationStatus
	if o.verifyPolicies {
		verifyStatus = &server.VerificationStatus{}
	}
	pol, err := loadPolicy(o.policyPath, o.verifyPolicies, verifyStatus, logf)
	if err != nil {
		return nil, nil, nil, err
	}

	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	fail := func(err error) (*pdp.PDP, *deps, func(), error) {
		cleanup()
		return nil, nil, nil, err
	}

	var trailKey []byte
	if o.keyFile != "" {
		k, err := os.ReadFile(o.keyFile)
		if err != nil {
			return fail(fmt.Errorf("read trail key: %w", err))
		}
		trailKey = []byte(strings.TrimSpace(string(k)))
	}

	cfg := pdp.Config{Policy: pol}

	if o.adiDir != "" {
		if o.adiSecret == "" {
			return fail(errors.New("-adi needs -adi-secret-file"))
		}
		secret, err := os.ReadFile(o.adiSecret)
		if err != nil {
			return fail(fmt.Errorf("read ADI secret: %w", err))
		}
		ds, err := adi.OpenDurable(o.adiDir, secret, o.adiSync)
		if err != nil {
			return fail(fmt.Errorf("open durable ADI: %w", err))
		}
		cleanups = append(cleanups, func() {
			if err := ds.Compact(); err != nil {
				logf("msodd: compact durable ADI: %v", err)
			}
			if err := ds.Close(); err != nil {
				logf("msodd: close durable ADI: %v", err)
			}
		})
		logf("msodd: durable retained ADI open with %d records", ds.Len())
		cfg.Store = ds
	} else {
		switch o.recover {
		case "none":
		case "trail":
			if o.trailDir == "" || len(trailKey) == 0 {
				return fail(errors.New("-recover trail needs -trail and -trail-key-file"))
			}
			store, stats, err := pdp.Recover(pol, pdp.RecoveryConfig{
				Mode: pdp.RecoverFromTrail, TrailDir: o.trailDir, TrailKey: trailKey,
			})
			if err != nil {
				return fail(fmt.Errorf("trail recovery: %w", err))
			}
			logf("msodd: recovered %d retained-ADI records from %d events (%d diverged)",
				stats.Records, stats.Events, stats.Diverged)
			cfg.Store = store
		case "snapshot":
			if o.snapPath == "" || o.snapSecret == "" {
				return fail(errors.New("-recover snapshot needs -snapshot and -snapshot-secret-file"))
			}
			secret, err := os.ReadFile(o.snapSecret)
			if err != nil {
				return fail(fmt.Errorf("read snapshot secret: %w", err))
			}
			snap, err := adi.NewSecureStore(o.snapPath, secret)
			if err != nil {
				return fail(fmt.Errorf("open snapshot: %w", err))
			}
			store, stats, err := pdp.Recover(pol, pdp.RecoveryConfig{
				Mode: pdp.RecoverFromSnapshot, Snapshot: snap,
			})
			if err != nil {
				return fail(fmt.Errorf("snapshot recovery: %w", err))
			}
			logf("msodd: loaded %d retained-ADI records from snapshot", stats.Records)
			cfg.Store = store
		default:
			return fail(fmt.Errorf("unknown -recover mode %q", o.recover))
		}
	}

	if o.trailDir != "" {
		if len(trailKey) == 0 {
			return fail(errors.New("-trail needs -trail-key-file"))
		}
		w, err := audit.NewWriter(o.trailDir, trailKey, o.segSize)
		if err != nil {
			return fail(fmt.Errorf("open trail: %w", err))
		}
		cleanups = append(cleanups, func() {
			if err := w.Close(); err != nil {
				logf("msodd: close trail: %v", err)
			}
		})
		cfg.Trail = w
	}

	if cfg.Store == nil {
		// Pin the store so policy hot-reloads keep the same history.
		cfg.Store = adi.NewStore()
	}
	d := &deps{
		store:    cfg.Store,
		trail:    cfg.Trail,
		trailKey: trailKey,
		broker:   inspect.NewBroker(0),
		verify:   verifyStatus,
	}
	cfg.Observer = d.observer()
	p, err := pdp.New(cfg)
	if err != nil {
		return fail(fmt.Errorf("build PDP: %w", err))
	}
	return p, d, cleanup, nil
}

// reloadPDP builds a fresh PDP from the current policy file over the
// existing store and trail — the SIGHUP hot-reload path. The retained
// ADI carries over, so history-dependent decisions are unaffected by
// the policy swap (and a changed MSoD set applies to the existing
// history immediately, as §5.2's restart semantics do).
func reloadPDP(o *options, d *deps, logf func(format string, args ...any)) (*pdp.PDP, error) {
	pol, err := loadPolicy(o.policyPath, o.verifyPolicies, d.verify, logf)
	if err != nil {
		return nil, err
	}
	return pdp.New(pdp.Config{
		Policy: pol, Store: d.store, Trail: d.trail, Observer: d.observer(),
	})
}

// serve runs the HTTP server on the listener until ctx is cancelled,
// then shuts down gracefully.
func serve(ctx context.Context, ln net.Listener, handler http.Handler, logf func(string, ...any)) error {
	srv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logf("msodd: listening on %s", ln.Addr())

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		logf("msodd: shutting down")
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-errCh // Serve has returned ErrServerClosed
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// serverOptions assembles the server options shared by the initial
// build and every SIGHUP reload: slow-decision logging and, when the
// durable ADI is in use, its recovery-time and disk-usage gauges.
func serverOptions(o *options, d *deps, logger *slog.Logger) []server.Option {
	opts := []server.Option{server.WithEventBroker(d.broker)}
	if d.verify != nil {
		opts = append(opts, server.WithPolicyVerification(d.verify))
	}
	if o.explainCapacity != 0 {
		opts = append(opts, server.WithExplainCapacity(o.explainCapacity))
	}
	if o.traceCapacity >= 0 {
		// One trace store per process: built here (not per reload) so
		// retained span trees survive SIGHUP policy reloads.
		opts = append(opts, server.WithTraceStore(trace.NewStore(trace.Config{
			Capacity:      o.traceCapacity,
			SampleEvery:   o.traceSample,
			SlowThreshold: o.traceSlow,
		})))
	}
	if o.sloLatencyP99 > 0 {
		// One SLO tracker per process: built here (not per reload) so the
		// error-budget window survives SIGHUP policy reloads.
		opts = append(opts, server.WithSLO(obsv.NewSLO(obsv.SLOConfig{
			Goal: o.sloGoal, Latency: o.sloLatencyP99, Window: o.sloWindow,
		})))
	}
	if d.sentinel != nil {
		opts = append(opts, server.WithSentinel(d.sentinel, o.sentinelFailClosed))
	}
	if o.slowLog > 0 {
		opts = append(opts, server.WithDecisionLog(logger, o.slowLog))
	}
	if o.maxInFlight > 0 {
		opts = append(opts, server.WithAdmissionLimit(o.maxInFlight, o.shedRetryAfter))
	}
	if o.handoff {
		opts = append(opts, server.WithHandoff())
	}
	if ds, ok := d.store.(*adi.DurableStore); ok {
		opts = append(opts,
			server.WithGauge("msod_adi_recovery_seconds",
				"Time spent recovering the durable retained ADI at startup.",
				func() float64 { return ds.RecoveryDuration().Seconds() }),
			server.WithGauge("msod_adi_durable_bytes",
				"On-disk size of the durable retained ADI (snapshot + WAL).",
				func() float64 { return float64(ds.DiskUsage()) }),
		)
	}
	return opts
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obsv.NewLogger(os.Stderr, "msodd")
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}
	if o.replicaOf != "" {
		runReplica(o, logger, logf, fatalf)
		return
	}
	p, d, cleanup, err := buildPDP(o, logf)
	if err != nil {
		fatalf("msodd: %v", err)
	}
	defer cleanup()
	logf("msodd: policy %q loaded", p.PolicyID())

	if o.sentinelInterval > 0 {
		if o.trailDir == "" || len(d.trailKey) == 0 {
			fatalf("msodd: -sentinel-interval needs -trail and -trail-key-file")
		}
		sent, err := inspect.NewSentinel(inspect.SentinelConfig{
			Dir: o.trailDir, Key: d.trailKey, Interval: o.sentinelInterval, Logger: logger,
		})
		if err != nil {
			fatalf("msodd: sentinel: %v", err)
		}
		sent.Start()
		defer sent.Stop()
		d.sentinel = sent
		logf("msodd: audit-chain sentinel checking every %s (fail-closed=%v)",
			o.sentinelInterval, o.sentinelFailClosed)
	}

	srvOpts := serverOptions(o, d, logger)
	var cur atomic.Pointer[server.Server]
	cur.Store(server.New(p, srvOpts...))

	if o.pprofAddr != "" {
		addr, warn, err := obsv.SanitizePprofAddr(o.pprofAddr, o.pprofAllowRemote)
		if err != nil {
			fatalf("msodd: %v", err)
		}
		if warn {
			logger.Warn("pprof bound to a non-loopback address; profiling endpoints expose process internals",
				slog.String("addr", addr))
		}
		pln, err := net.Listen("tcp", addr)
		if err != nil {
			fatalf("msodd: pprof listen: %v", err)
		}
		logf("msodd: pprof on %s", pln.Addr())
		go func() {
			if err := http.Serve(pln, obsv.PprofHandler()); err != nil {
				logf("msodd: pprof server stopped: %v", err)
			}
		}()
	}

	// SIGHUP hot-reloads the policy over the live store and trail; a
	// failed reload keeps the previous policy serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			np, err := reloadPDP(o, d, logf)
			if err != nil {
				logf("msodd: policy reload failed, keeping previous: %v", err)
				continue
			}
			cur.Store(server.New(np, srvOpts...))
			logf("msodd: policy %q reloaded", np.PolicyID())
		}
	}()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatalf("msodd: listen: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// The handler is read through the pointer on every request, so a
	// SIGHUP policy reload swaps it atomically.
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	})
	if err := serve(ctx, ln, handler, logf); err != nil {
		fatalf("msodd: %v", err)
	}
}

// runReplica is the -replica-of mode: bootstrap a retained-ADI mirror
// from the owner's snapshot, tail its event stream with sequence
// resume, and serve the advisory/state surface under the bounded
// staleness contract. Decision and management POSTs are refused with
// 421 — a replica never answers authoritatively.
func runReplica(o *options, logger *slog.Logger, logf func(string, ...any), fatalf func(string, ...any)) {
	pol, err := loadPolicy(o.policyPath, o.verifyPolicies, nil, logf)
	if err != nil {
		fatalf("msodd: %v", err)
	}
	f, err := replica.New(replica.Config{
		Owner:        o.replicaOf,
		Policy:       pol,
		MaxStaleness: o.maxStaleness,
		Logger:       logger,
	})
	if err != nil {
		fatalf("msodd: replica: %v", err)
	}
	logf("msodd: replica of %s (policy %q, max staleness %s)",
		o.replicaOf, pol.ID, f.MaxStaleness())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		if err := f.Run(ctx); err != nil && ctx.Err() == nil {
			// Terminal follower error (the owner runs a different
			// policy): serving would answer from alien history.
			logger.Error(fmt.Sprintf("msodd: replica follower stopped: %v", err))
			stop()
		}
	}()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatalf("msodd: listen: %v", err)
	}
	if err := serve(ctx, ln, replica.NewServer(f), logf); err != nil {
		fatalf("msodd: %v", err)
	}
}
