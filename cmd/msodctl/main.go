// Command msodctl is the operator tool for an MSoD deployment.
//
// Subcommands:
//
//	msodctl validate -policy policy.xml
//	    Parse and validate a policy document; print a summary.
//
//	msodctl lint -policy policy.xml
//	    Report probable policy-authoring mistakes (dead roles, MSoD
//	    constraints that can never fire, unterminable contexts).
//
//	msodctl verify-trail -trail ./trail -trail-key-file key.txt
//	    Verify the audit trail's HMAC chain end to end.
//
//	msodctl replay -trail ./trail -trail-key-file key.txt -policy policy.xml
//	    Rebuild the retained ADI from the trail under the given policy and
//	    report what a restarting PDP would recover (§5.2).
//
//	msodctl decide -server http://host:8443 -user u -roles Teller \
//	        -op HandleCash -target till -context "Branch=York, Period=2006"
//	    Submit one decision request to a running msodd. With -advise the
//	    request is advisory only (nothing is recorded).
//
//	msodctl manage -server http://host:8443 -user admin \
//	        -roles RetainedADIController -op purgeContext \
//	        -pattern "Branch=*, Period=2006"
//	    Run a §4.3 retained-ADI management operation.
//
//	msodctl health -server http://host:8443
//	    Check liveness and print the loaded policy ID.
//
//	msodctl tail -server http://host:8443 [-user u] [-context "Branch=*"] \
//	        [-outcome deny] [-replay 50] [-json]
//	    Follow the live decision event stream (of one msodd, or of a
//	    whole cluster through msodgw, where events carry shard labels).
//
//	msodctl state -server http://host:8443 -user alice
//	msodctl state -server http://host:8443 -context "Branch=*, Period=2006"
//	    Show live retained-ADI state: records and per-constraint progress
//	    (k of m roles/privileges consumed, near-limit warnings).
//
//	msodctl explain -server http://host:8443 -request <requestID>
//	    Show one decision's provenance: the rules evaluated, their k-of-m
//	    counter state before and after, and the governing constraint.
//	    Against msodgw the query fans out to the shard that decided.
//
//	msodctl trace -server http://host:8443 <traceID>
//	    Render a tail-sampled decision's span tree as a waterfall:
//	    pipeline stages indented under their parents with duration
//	    bars. Against msodgw the per-shard span sets are merged and
//	    each span carries shard attribution.
//
//	msodctl cluster [status] -server http://gw:8440
//	msodctl cluster join -server http://gw:8440 -shard c -url http://host:8445 [-wait]
//	msodctl cluster drain -server http://gw:8440 -shard a [-wait]
//	msodctl cluster remove -server http://gw:8440 -shard a
//	    Inspect and change elastic cluster membership through msodgw:
//	    status shows the ring, lifecycle states and any in-flight
//	    handoff; join/drain start a live resharding handoff (async;
//	    -wait polls it to completion); remove drops a shard that owns
//	    nothing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"msod/internal/audit"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/policycheck"
	"msod/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "lint":
		err = cmdLint(os.Args[2:])
	case "verify-trail":
		err = cmdVerifyTrail(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "decide":
		err = cmdDecide(os.Args[2:])
	case "manage":
		err = cmdManage(os.Args[2:])
	case "health":
		err = cmdHealth(os.Args[2:])
	case "tail":
		err = cmdTail(os.Args[2:])
	case "state":
		err = cmdState(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "msodctl: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "msodctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: msodctl <validate|lint|verify-trail|replay|decide|manage|health|tail|state|explain|trace|cluster> [flags]")
}

func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	policyPath := fs.String("policy", "", "policy XML path")
	fs.Parse(args)
	if *policyPath == "" {
		return fmt.Errorf("lint: -policy is required")
	}
	raw, err := os.ReadFile(*policyPath)
	if err != nil {
		return err
	}
	// Full verification: declaration lint, the semantic model check, and
	// the document's msod:ignore suppressions.
	res, err := policycheck.CheckSource(raw, policycheck.Config{})
	if err != nil {
		return err
	}
	if len(res.Findings) == 0 {
		if res.Suppressed > 0 {
			fmt.Printf("no findings (%d suppressed)\n", res.Suppressed)
		} else {
			fmt.Println("no findings")
		}
		return nil
	}
	for _, f := range res.Findings {
		fmt.Println(f)
	}
	// Errors are provable defects, warnings probable ones; both fail the
	// lint so scripted pipelines catch them.
	if n := res.Errors(); n > 0 {
		return fmt.Errorf("%d error(s), %d warning(s)", n, res.Warnings())
	}
	if n := res.Warnings(); n > 0 {
		return fmt.Errorf("%d warning(s)", n)
	}
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	policyPath := fs.String("policy", "", "policy XML path")
	fs.Parse(args)
	if *policyPath == "" {
		return fmt.Errorf("validate: -policy is required")
	}
	raw, err := os.ReadFile(*policyPath)
	if err != nil {
		return err
	}
	pol, err := policy.ParseRBACPolicy(raw)
	if err != nil {
		return err
	}
	fmt.Printf("policy %q: valid\n", pol.ID)
	fmt.Printf("  roles:       %d\n", len(pol.Roles))
	fmt.Printf("  hierarchy:   %d edge(s)\n", len(pol.Hierarchy))
	fmt.Printf("  assignments: %d (SOA trust entries)\n", len(pol.Assignments))
	fmt.Printf("  grants:      %d\n", len(pol.Grants))
	fmt.Printf("  SSD/DSD:     %d/%d set(s)\n", len(pol.SSD), len(pol.DSD))
	if pol.MSoD == nil {
		fmt.Println("  MSoD:        none")
		return nil
	}
	fmt.Printf("  MSoD:        %d polic(ies)\n", len(pol.MSoD.Policies))
	for _, mp := range pol.MSoD.Policies {
		steps := ""
		if mp.FirstStep != nil {
			steps += " first=" + mp.FirstStep.Operation
		}
		if mp.LastStep != nil {
			steps += " last=" + mp.LastStep.Operation
		}
		fmt.Printf("    context %q: %d MMER, %d MMEP%s\n",
			mp.BusinessContext, len(mp.MMER), len(mp.MMEP), steps)
	}
	return nil
}

func cmdVerifyTrail(args []string) error {
	fs := flag.NewFlagSet("verify-trail", flag.ExitOnError)
	dir := fs.String("trail", "", "trail directory")
	keyFile := fs.String("trail-key-file", "", "HMAC key file")
	fs.Parse(args)
	if *dir == "" || *keyFile == "" {
		return fmt.Errorf("verify-trail: -trail and -trail-key-file are required")
	}
	key, err := os.ReadFile(*keyFile)
	if err != nil {
		return err
	}
	r, err := audit.NewReader(*dir, []byte(strings.TrimSpace(string(key))))
	if err != nil {
		return err
	}
	start := time.Now()
	n, err := r.Verify()
	if err != nil {
		return fmt.Errorf("trail INVALID: %w", err)
	}
	fmt.Printf("trail OK: %d entries verified in %s\n", n, time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	dir := fs.String("trail", "", "trail directory")
	keyFile := fs.String("trail-key-file", "", "HMAC key file")
	policyPath := fs.String("policy", "", "policy XML path")
	lastN := fs.Int("last", 0, "only the last N segments (0 = all)")
	since := fs.String("since", "", "only events at or after this RFC3339 time")
	fs.Parse(args)
	if *dir == "" || *keyFile == "" || *policyPath == "" {
		return fmt.Errorf("replay: -trail, -trail-key-file and -policy are required")
	}
	key, err := os.ReadFile(*keyFile)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(*policyPath)
	if err != nil {
		return err
	}
	pol, err := policy.ParseRBACPolicy(raw)
	if err != nil {
		return err
	}
	rc := pdp.RecoveryConfig{
		Mode:         pdp.RecoverFromTrail,
		TrailDir:     *dir,
		TrailKey:     []byte(strings.TrimSpace(string(key))),
		LastSegments: *lastN,
	}
	if *since != "" {
		t, err := time.Parse(time.RFC3339, *since)
		if err != nil {
			return fmt.Errorf("replay: -since: %w", err)
		}
		rc.Since = t
	}
	start := time.Now()
	store, stats, err := pdp.Recover(pol, rc)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d event(s) in %s\n", stats.Events, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  MSoD-relevant grants: %d\n", stats.Replayed)
	fmt.Printf("  diverged under current policy: %d\n", stats.Diverged)
	fmt.Printf("  rebuilt retained-ADI records: %d (%d user(s))\n", store.Len(), store.Users())
	return nil
}

func cmdDecide(args []string) error {
	fs := flag.NewFlagSet("decide", flag.ExitOnError)
	srv := fs.String("server", "http://127.0.0.1:8443", "PDP base URL")
	user := fs.String("user", "", "user ID")
	roles := fs.String("roles", "", "comma-separated activated roles")
	op := fs.String("op", "", "operation")
	target := fs.String("target", "", "target object")
	ctx := fs.String("context", "", "business context instance")
	reqID := fs.String("request-id", "", "idempotency/explain key for this decision (server assigns the trace ID when empty)")
	advise := fs.Bool("advise", false, "advisory only: do not record the decision")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline (0 disables)")
	fs.Parse(args)

	client := server.NewClient(*srv, nil, server.WithTimeout(*timeout))
	wire := server.DecisionRequest{
		RequestID: *reqID,
		User:      *user,
		Roles:     splitList(*roles),
		Operation: *op,
		Target:    *target,
		Context:   *ctx,
	}
	var (
		resp server.DecisionResponse
		err  error
	)
	if *advise {
		resp, err = client.Advice(wire)
	} else {
		resp, err = client.Decision(wire)
	}
	if err != nil {
		return err
	}
	verdict := "DENY"
	if resp.Allowed {
		verdict = "GRANT"
	}
	fmt.Printf("%s (phase=%s)\n", verdict, resp.Phase)
	if resp.Reason != "" {
		fmt.Printf("  reason: %s\n", resp.Reason)
	}
	if resp.Recorded > 0 || resp.Purged > 0 {
		fmt.Printf("  retained ADI: +%d recorded, -%d purged\n", resp.Recorded, resp.Purged)
	}
	if resp.RequestID != "" {
		fmt.Printf("  explain: msodctl explain -server %s -request %s\n", *srv, resp.RequestID)
	}
	return nil
}

func cmdManage(args []string) error {
	fs := flag.NewFlagSet("manage", flag.ExitOnError)
	srv := fs.String("server", "http://127.0.0.1:8443", "PDP base URL")
	user := fs.String("user", "", "administrator user ID")
	roles := fs.String("roles", "RetainedADIController", "comma-separated roles")
	op := fs.String("op", "stats", "operation: stats | purgeContext | purgeUser | purgeBefore")
	pattern := fs.String("pattern", "", "context pattern for purgeContext")
	targetUser := fs.String("target-user", "", "user for purgeUser")
	before := fs.String("before", "", "RFC3339 cutoff for purgeBefore")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline (0 disables)")
	fs.Parse(args)

	wire := server.ManagementWireRequest{
		User: *user, Roles: splitList(*roles), Operation: *op,
		ContextPattern: *pattern, TargetUser: *targetUser,
	}
	if *before != "" {
		t, err := time.Parse(time.RFC3339, *before)
		if err != nil {
			return fmt.Errorf("manage: -before: %w", err)
		}
		wire.Before = &t
	}
	client := server.NewClient(*srv, nil, server.WithTimeout(*timeout))
	res, err := client.Manage(wire)
	if err != nil {
		return err
	}
	fmt.Printf("ok: removed %d record(s); %d remain\n", res.Removed, res.Records)
	return nil
}

func cmdHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	srv := fs.String("server", "http://127.0.0.1:8443", "PDP base URL")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline (0 disables)")
	fs.Parse(args)
	client := server.NewClient(*srv, nil, server.WithTimeout(*timeout))
	id, err := client.Health()
	if err != nil {
		return err
	}
	fmt.Printf("ok: policy %q\n", id)
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
