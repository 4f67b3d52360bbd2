// Command msodgw fronts a user-sharded cluster of msodd PDP shards
// with a consistent-hash gateway: decision and advisory requests route
// to the shard that owns the user, management and metrics fan out to
// every shard, and health-checked failover fails closed — a decision
// for a user whose shard is down gets an explicit 503, never a silent
// re-route that would evaluate MSoD against a partial retained ADI.
//
// Usage:
//
//	msodgw -addr :8440 \
//	       -shards a=http://10.0.0.1:8443,b=http://10.0.0.2:8443
//
// Each -shards entry is id=url; a bare URL uses itself as the ID. IDs
// are the stable sharding identity: restart a shard elsewhere under
// the same ID and its users follow it.
//
// It serves msod's wire protocol, so PEPs and msodctl are unchanged,
// plus the /v1/cluster membership endpoints (README.md, "HTTP
// endpoints").
//
// Membership is elastic: join and drain run a fail-closed handoff that
// streams the affected users' retained-ADI subtrees to their new
// owners; decisions for users in transit get 503 + Retry-After, never
// an answer from partial history. Shards must run with -handoff. With
// -state-file the live topology survives gateway restarts.
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
	"strings"
	"syscall"
	"time"

	"msod/internal/cluster"
	"msod/internal/node"
	"msod/internal/obsv"
)

// parseShards parses "id=url,id=url" (or bare URLs) into a topology.
func parseShards(spec string) ([]cluster.Shard, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("msodgw: -shards is required")
	}
	var out []cluster.Shard
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, ok := strings.Cut(entry, "=")
		if !ok {
			// Bare URL: it is its own (stable only as long as the
			// address is) identity.
			id, url = entry, entry
		}
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if id == "" || url == "" {
			return nil, fmt.Errorf("msodgw: malformed shard entry %q (want id=url)", entry)
		}
		out = append(out, cluster.Shard{ID: id, BaseURL: url})
	}
	if len(out) == 0 {
		return nil, errors.New("msodgw: -shards is required")
	}
	return out, nil
}

func parseFlags(args []string) (node.GatewayConfig, error) {
	fs := flag.NewFlagSet("msodgw", flag.ContinueOnError)
	var c node.GatewayConfig
	fs.StringVar(&c.Addr, "addr", ":8440", "listen address")
	fs.Func("shards", "comma-separated shard list, id=url each (required)", func(v string) (err error) {
		c.Shards, err = parseShards(v)
		return err
	})
	fs.DurationVar(&c.Timeout, "timeout", 5*time.Second, "deadline for shard calls: one routed decision's, retries included, or one fan-out's")
	fs.IntVar(&c.Retries, "retries", 2, "same-shard retries after a transport error (-1 disables)")
	fs.DurationVar(&c.RetryBackoff, "retry-backoff", 25*time.Millisecond, "initial retry backoff (doubles per attempt)")
	fs.DurationVar(&c.Probe, "probe", 5*time.Second, "health-probe interval")
	fs.IntVar(&c.FailAfter, "fail-after", 2, "consecutive failures before a shard is marked down")
	fs.IntVar(&c.BreakerAfter, "breaker-after", 5, "consecutive transport failures before a shard's circuit breaker opens")
	fs.DurationVar(&c.BreakerCooldown, "breaker-cooldown", 5*time.Second, "how long an open circuit refuses traffic before a half-open probe")
	fs.DurationVar(&c.SlowLog, "slowlog", 0, "log routed decisions slower than this (0 disables; 1ns logs every decision)")
	fs.IntVar(&c.MaxInflight, "max-inflight", 0, "cluster-wide admission bound: shed routed requests beyond this many in flight (0 = unbounded)")
	fs.DurationVar(&c.ShedRetryAfter, "shed-retry-after", time.Second, "Retry-After hint on admission sheds and handoff-window refusals")
	fs.StringVar(&c.StateFile, "state-file", "", "persist the live topology here after every membership change; restored on boot in preference to -shards")
	fs.DurationVar(&c.HandoffTimeout, "handoff-timeout", 2*time.Minute, "end-to-end bound on one membership handoff")
	fs.StringVar(&c.Pprof, "pprof", "", "serve net/http/pprof on this address (empty disables; binds loopback unless -pprof-allow-remote)")
	fs.BoolVar(&c.PprofAllowRemote, "pprof-allow-remote", false, "allow -pprof to bind a non-loopback address (profiling endpoints expose process internals)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("msodgw: %w", err)
	}
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obsv.NewLogger(os.Stderr, "msodgw")
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err == nil {
		err = run(ctx, cfg, ln, logger)
	}
	if err != nil {
		logger.Error(fmt.Sprintf("msodgw: %v", err))
		os.Exit(1)
	}
}

// run serves the gateway on ln until ctx ends.
func run(ctx context.Context, cfg node.GatewayConfig, ln net.Listener, logger *slog.Logger) error {
	gw, err := node.NewGateway(cfg, logger)
	if err != nil {
		return err
	}
	defer gw.Close()
	if err := node.StartPprof(cfg.Pprof, cfg.PprofAllowRemote, logger); err != nil {
		return err
	}
	return node.Serve(ctx, ln, gw, logger)
}
