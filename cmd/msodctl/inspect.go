package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"msod/internal/inspect"
	"msod/internal/server"
)

// cmdTail follows the decision event stream of a PDP or gateway
// (msodctl tail -server ... [-user u] [-context pat] [-outcome deny]
// [-replay n] [-json]), printing one line per decision until
// interrupted.
func cmdTail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	srv := fs.String("server", "http://127.0.0.1:8443", "PDP or gateway base URL")
	user := fs.String("user", "", "only this user's decisions")
	ctxPat := fs.String("context", "", "only decisions in contexts matching this pattern (wildcards allowed)")
	outcome := fs.String("outcome", "", "only this outcome: grant | deny | purge | activate | import")
	replay := fs.Int("replay", 0, "start with up to N recent retained events")
	jsonOut := fs.Bool("json", false, "print events as JSON lines")
	fs.Parse(args)

	// Validate the filter locally for an immediate error message instead
	// of a stream-open failure.
	if _, err := inspect.NewFilter(*user, *ctxPat, *outcome); err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := server.NewClient(*srv, nil)
	enc := json.NewEncoder(os.Stdout)
	// FollowEvents reconnects after a drop or a 5xx answer with
	// sequence resume, so a server restart or network blip does not
	// silently skip the events published while the tail was down. Only
	// an unrecoverable gap (events rotated past the server's retained
	// ring, or a gateway, whose merged stream cannot resume) or a 4xx
	// refusal ends the command, the gap with an explanation rather than
	// a quiet hole.
	err := client.FollowEvents(ctx, server.FollowEventsOptions{
		User: *user, Context: *ctxPat, Outcome: *outcome, Replay: *replay,
	}, func(ev inspect.DecisionEvent) error {
		if *jsonOut {
			return enc.Encode(ev)
		}
		fmt.Println(formatEvent(ev))
		return nil
	})
	switch {
	case errors.Is(err, context.Canceled):
		return nil // interrupted: a clean exit for a follow command
	case errors.Is(err, server.ErrEventGap):
		return fmt.Errorf("tail: the stream could not resume where it left off — the events published while disconnected have rotated out of the server's retained ring, or the server is a gateway, which cannot replay them: %w (re-run tail to rejoin live)", err)
	}
	return err
}

// formatEvent renders one decision event as a human-readable line.
func formatEvent(ev inspect.DecisionEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %-5s user=%s", ev.Time.Format(time.RFC3339), strings.ToUpper(ev.Effect), ev.User)
	if len(ev.Roles) > 0 {
		fmt.Fprintf(&b, " roles=%s", strings.Join(ev.Roles, ","))
	}
	fmt.Fprintf(&b, " op=%s target=%s", ev.Operation, ev.Target)
	if ev.Context != "" {
		fmt.Fprintf(&b, " ctx=%q", ev.Context)
	}
	if ev.Stage != "" {
		fmt.Fprintf(&b, " stage=%s", ev.Stage)
	}
	if ev.Shard != "" {
		fmt.Fprintf(&b, " shard=%s", ev.Shard)
	}
	if ev.TraceID != "" {
		fmt.Fprintf(&b, " trace=%s", ev.TraceID)
	}
	if ev.Rule != "" {
		// The refusing MSoD constraint, inline: which rule denied and how
		// full its k-of-m counter already was.
		fmt.Fprintf(&b, " rule=%s k=%d/%d", ev.Rule, ev.K, ev.M)
	}
	if ev.Reason != "" {
		fmt.Fprintf(&b, " reason=%q", ev.Reason)
	}
	return b.String()
}

// cmdState queries live retained-ADI state: per-user with -user, or
// per-context (wildcards allowed) with -context.
func cmdState(args []string) error {
	fs := flag.NewFlagSet("state", flag.ExitOnError)
	srv := fs.String("server", "http://127.0.0.1:8443", "PDP or gateway base URL")
	user := fs.String("user", "", "user ID to inspect")
	ctxPat := fs.String("context", "", "business context pattern to inspect")
	timeout := fs.Duration("timeout", 10*time.Second, "request deadline (0 disables)")
	jsonOut := fs.Bool("json", false, "print the raw JSON answer")
	fs.Parse(args)
	if (*user == "") == (*ctxPat == "") {
		return fmt.Errorf("state: exactly one of -user or -context is required")
	}
	client := server.NewClient(*srv, nil, server.WithTimeout(*timeout))

	if *user != "" {
		st, err := client.UserState(*user)
		if err != nil {
			return err
		}
		if *jsonOut {
			return printJSON(st)
		}
		printUserState(st, "")
		return nil
	}
	st, err := client.ContextState(*ctxPat)
	if err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(st)
	}
	fmt.Printf("context %q: %d open instance(s), %d user(s)\n", st.Context, len(st.Instances), len(st.Users))
	for _, inst := range st.Instances {
		fmt.Printf("  instance %q\n", inst)
	}
	for _, u := range st.Users {
		printUserState(u, "  ")
	}
	return nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// printUserState renders one user's records and constraint progress.
func printUserState(st inspect.UserState, indent string) {
	fmt.Printf("%suser %s: %d retained record(s), %d tracked constraint(s)\n",
		indent, st.User, len(st.Records), len(st.Constraints))
	for _, rec := range st.Records {
		fmt.Printf("%s  record: roles=%s op=%s target=%s ctx=%q at %s\n",
			indent, strings.Join(rec.Roles, ","), rec.Operation, rec.Target,
			rec.Context, rec.Time.Format(time.RFC3339))
	}
	for _, c := range st.Constraints {
		consumed := c.Roles
		if c.Kind == "MMEP" {
			consumed = c.Privileges
		}
		mark := ""
		if c.NearLimit {
			mark = "  <- NEAR LIMIT (next conflicting activation is denied)"
		}
		fmt.Printf("%s  constraint %s @ %q (policy %s): %d of %d consumed [%s]%s\n",
			indent, c.Rule, c.Bound, c.Policy, c.K, c.M, strings.Join(consumed, ", "), mark)
		if c.LastTraceID != "" {
			fmt.Printf("%s    last decision trace: %s\n", indent, c.LastTraceID)
		}
	}
}
