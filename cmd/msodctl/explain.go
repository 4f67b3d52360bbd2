package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"msod/internal/explain"
	"msod/internal/server"
)

// cmdExplain fetches and renders one decision's provenance record
// (msodctl explain -server ... -request <id>): the resolved subject,
// every MSoD rule evaluated with its k-of-m counter state before and
// after the decision, and the constraint that governed the outcome.
// Against a gateway the query fans out to the whole cluster and the
// shard that executed the decision answers.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	srv := fs.String("server", "http://127.0.0.1:8443", "PDP or gateway base URL")
	rid := fs.String("request", "", "request ID from a decision response (the trace ID works when no idempotency ID was sent)")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline (0 disables)")
	jsonOut := fs.Bool("json", false, "print the raw JSON record")
	fs.Parse(args)
	if *rid == "" && fs.NArg() == 1 {
		*rid = fs.Arg(0)
	}
	if *rid == "" {
		return fmt.Errorf("explain: -request <requestID> is required (a decision response's requestID field)")
	}
	client := server.NewClient(*srv, nil, server.WithTimeout(*timeout))
	rec, err := client.Explain(*rid)
	if err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(rec)
	}
	printExplain(rec)
	return nil
}

// printExplain renders a provenance record for humans.
func printExplain(rec explain.Record) {
	fmt.Printf("%s user=%s op=%s target=%s ctx=%q\n",
		strings.ToUpper(rec.Outcome), rec.User, rec.Operation, rec.Target, rec.Context)
	fmt.Printf("  request %s  trace %s\n", rec.RequestID, rec.TraceID)
	fmt.Printf("  at %s (%.6fs)\n", rec.Time.Format(time.RFC3339Nano), rec.ElapsedSeconds)
	if len(rec.Roles) > 0 {
		fmt.Printf("  roles: %s\n", strings.Join(rec.Roles, ", "))
	}
	fmt.Printf("  phase=%s", rec.Phase)
	if rec.Reason != "" {
		fmt.Printf(" reason=%q", rec.Reason)
	}
	fmt.Println()
	if rec.MatchedPolicies > 0 || rec.Recorded > 0 || rec.Purged > 0 {
		fmt.Printf("  MSoD: %d polic(ies) matched; retained ADI +%d recorded, -%d purged\n",
			rec.MatchedPolicies, rec.Recorded, rec.Purged)
	}
	if len(rec.Rules) == 0 {
		fmt.Println("  no MSoD rule applied to this request")
	} else {
		fmt.Printf("  rule evaluations (%d):\n", len(rec.Rules))
		for _, ev := range rec.Rules {
			fmt.Printf("    %s\n", formatRuleEval(ev))
		}
	}
	if rec.Governing != nil {
		fmt.Printf("  governing constraint: %s\n", formatRuleEval(*rec.Governing))
	}
	for _, t := range rec.Terminated {
		fmt.Printf("  context terminated (last step): %q — bound history purged\n", t)
	}
}

// formatRuleEval renders one rule evaluation with its k-of-m movement.
func formatRuleEval(ev explain.RuleEval) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s @ %q (policy %s): k %d -> %d of m %d",
		ev.Kind, ev.Rule, ev.Bound, ev.Policy, ev.K, ev.KAfter, ev.M)
	if len(ev.Matched) > 0 {
		fmt.Fprintf(&b, " [%s]", strings.Join(ev.Matched, ", "))
	}
	if ev.Denied {
		b.WriteString("  <- DENIED here (count reached the forbidden cardinality)")
	}
	return b.String()
}
