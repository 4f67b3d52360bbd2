// Command msodd runs an MSoD-enforcing PDP as an HTTP service: the
// distributed deployment of §4/§5. It loads an RBACPolicy XML document
// (with its embedded MSoDPolicySet), recovers or opens the retained ADI
// (audit-trail replay, or the self-recovering durable store), and
// serves the decision, advice and management endpoints until
// SIGINT/SIGTERM, shutting down gracefully. SIGHUP hot-reloads the
// policy file over the live retained ADI; a failed reload keeps the
// previous policy serving.
//
// Usage:
//
//	msodd -policy policy.xml -addr :8443 \
//	      -trail ./trail -trail-key-file key.txt \
//	      -recover trail
//
//	msodd -policy policy.xml -adi ./adi -adi-secret-file secret.txt
//
// It serves the endpoints README.md lists under "HTTP endpoints";
// docs/OPERATIONS.md is the runbook.
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"msod/internal/node"
	"msod/internal/obsv"
)

func parseFlags(args []string) (node.Config, error) {
	fs := flag.NewFlagSet("msodd", flag.ContinueOnError)
	var c node.Config
	fs.StringVar(&c.Policy, "policy", "", "path to the RBACPolicy XML document (required)")
	fs.StringVar(&c.Addr, "addr", ":8443", "listen address")
	fs.StringVar(&c.Trail, "trail", "", "audit trail directory (empty disables the trail)")
	fs.StringVar(&c.TrailKeyFile, "trail-key-file", "", "file holding the trail HMAC key")
	fs.StringVar(&c.Recover, "recover", "none", "retained-ADI recovery: none | trail")
	fs.IntVar(&c.TrailSegment, "trail-segment", node.DefaultTrailSegment, "audit trail entries per segment, fsynced when sealed: what a power loss can drop")
	fs.StringVar(&c.ADI, "adi", "", "durable retained-ADI directory, synced on every write (self-recovering; overrides -recover)")
	fs.StringVar(&c.ADISecretFile, "adi-secret-file", "", "file holding the durable ADI secret")
	fs.IntVar(&c.MaxInflight, "max-inflight", 0, "shed decision/management requests beyond this many in flight (0 = unbounded)")
	fs.DurationVar(&c.ShedRetryAfter, "shed-retry-after", time.Second, "Retry-After hint on shed (503) responses")
	fs.BoolVar(&c.Handoff, "handoff", false, "trust an msodgw gateway with the retained ADI: serve the resharding handoff endpoints (the import endpoint replaces per-user history) and close the context instances its requests name in the Msod-Close header")
	fs.DurationVar(&c.SlowLog, "slowlog", 0, "log decisions that take this long or longer, and keep their span trees for /v1/traces (0 disables; 1ns logs every decision)")
	fs.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof on this address (empty disables; binds loopback unless -pprof-allow-remote)")
	fs.BoolVar(&c.PprofAllowRemote, "pprof-allow-remote", false, "allow -pprof to bind a non-loopback address (profiling endpoints expose process internals)")
	fs.DurationVar(&c.SentinelInterval, "sentinel-interval", 0, "audit-chain sentinel check interval (0 disables; needs -trail)")
	fs.BoolVar(&c.SentinelFailClosed, "sentinel-fail-closed", false, "refuse decisions once the sentinel detects audit-chain tampering")
	fs.IntVar(&c.ExplainCapacity, "explain-capacity", 0, "decisions retained for /v1/explain, and with them their kept span trees for /v1/traces (0 = 1024 default; negative disables both)")
	fs.IntVar(&c.TraceSample, "trace-sample", 0, "keep a deterministic 1-in-N sample of fast grants' span trees (0 keeps none; refusals, errors and slow decisions are always kept)")
	fs.DurationVar(&c.SLOLatencyP99, "slo-latency-p99", 0, "declared per-decision latency objective; enables the msod_slo_* metric families (0 disables the SLO layer)")
	fs.Float64Var(&c.SLOGoal, "slo-goal", 0.999, "declared good-request target fraction for the SLO layer")
	fs.DurationVar(&c.SLOWindow, "slo-window", time.Hour, "rolling error-budget window for the SLO layer (fast burn-rate window is 1/12 of this)")
	fs.BoolVar(&c.VerifyPolicies, "verify-policies", false, "model-check the policy at boot and on reload; refuse to serve on error-severity findings (fail closed)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("msodd: %w", err)
	}
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obsv.NewLogger(os.Stderr, "msodd")
	if err := run(cfg, logger); err != nil {
		logger.Error(fmt.Sprintf("msodd: %v", err))
		os.Exit(1)
	}
}

// run serves the shard until SIGINT or SIGTERM. SIGHUP reloads the
// policy over the live retained ADI; a failed reload keeps the
// previous policy serving.
func run(cfg node.Config, logger *slog.Logger) (err error) {
	sh, err := node.NewShard(cfg, logger)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sh.Close()) }()
	if err := node.StartPprof(cfg.Pprof, cfg.PprofAllowRemote, logger); err != nil {
		return err
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := sh.Reload(); err != nil {
				logger.Error(fmt.Sprintf("msodd: policy reload failed, keeping previous: %v", err))
			}
		}
	}()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return node.Serve(ctx, ln, sh, logger)
}
