package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"msod/internal/server"
)

// TestLongUserIsAnsweredAsDecided: a Teller grant whose user is
// 300,000 '<' (a 300 KB body, under the 1 MiB request cap) is committed
// on its owner and answered as granted through the gateway, and the
// same user's conflicting Auditor request is answered denied in no more
// bytes than its request plus 1%. An answer spells '<' as one byte, and
// the MSoD reason quotes no part of the request. Escaped to six bytes
// each, and quoted in the reason beside the echoed user, the grant's
// answer was past the gateway's read cap (a 502, for ever) and the
// denial's about 12 times its request.
func TestLongUserIsAnsweredAsDecided(t *testing.T) {
	_, _, c := newGateway(t, Config{}, nil, urls(newShards(t, 3, handoff))...)
	ctx := context.Background()
	huge := strings.Repeat("<", 300_000)
	request := func(role, op, target string) []byte {
		return []byte(`{"user":"` + huge + `","roles":["` + role + `"],"operation":"` + op +
			`","target":"` + target + `","context":"Branch=York, Period=p1"}`)
	}
	for _, step := range []struct {
		role, op, target string
		allowed          bool
	}{
		{"Teller", "HandleCash", "till", true},
		{"Auditor", "Audit", "ledger", false},
	} {
		body := request(step.role, step.op, step.target)
		answer, err := c.PostRaw(ctx, server.DecisionPath, "", body)
		if err != nil {
			t.Fatalf("%s as %s: %v; want it answered", step.op, step.role, err)
		}
		var resp server.DecisionResponse
		if err := json.Unmarshal(answer, &resp); err != nil {
			t.Fatalf("%s as %s: %v", step.op, step.role, err)
		}
		if resp.Allowed != step.allowed || resp.User != huge {
			t.Fatalf("%s as %s: allowed=%v phase=%s, user of %d bytes; want allowed=%v for the whole user",
				step.op, step.role, resp.Allowed, resp.Phase, len(resp.User), step.allowed)
		}
		if ratio := float64(len(answer)) / float64(len(body)); ratio > 1.01 {
			t.Errorf("%s as %s: a %d-byte answer to a %d-byte request (%.2f×), want at most 1.01×",
				step.op, step.role, len(answer), len(body), ratio)
		}
		if !step.allowed && (resp.Phase != "msod" || strings.Contains(resp.Reason, "<")) {
			t.Errorf("the denial: phase %s, reason %.200q; want an MSoD reason quoting nothing of the user", resp.Phase, resp.Reason)
		}
	}
}

// TestLongBadContextIsAnsweredBounded: a decision whose context is
// 300,000 '<' (no component, so no context) is refused 400 by its shard
// with a bounded prefix of the parse error, and the gateway passes that
// refusal on. Quoting the whole context, the shard's answer was 1.8 MB,
// and the gateway, which cannot decode an error body past its read
// limit, answered {"error":""}.
func TestLongBadContextIsAnsweredBounded(t *testing.T) {
	shards := newShards(t, 3, handoff)
	gw, _, c := newGateway(t, Config{}, nil, urls(shards)...)
	owner, _ := gw.ShardFor("alice")
	body := []byte(`{"user":"alice","roles":["Teller"],"operation":"HandleCash","target":"till","context":"` +
		strings.Repeat("<", 300_000) + `"}`)
	var direct *server.Client
	for _, s := range shards {
		if s.id == owner {
			direct = server.NewClient(s.ts.URL, nil)
		}
	}
	for name, client := range map[string]*server.Client{"the gateway": c, "shard " + owner: direct} {
		_, err := client.PostRaw(context.Background(), server.DecisionPath, "", body)
		var apiErr *server.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Fatalf("%s: %v; want a 400", name, err)
		}
		if msg := apiErr.Message; len(msg) >= 1<<10 || !strings.HasPrefix(msg, "context: bctx: component") {
			t.Errorf("%s: a %d-byte message %.200q; want under 1 KB, naming the context error", name, len(msg), msg)
		}
	}
}
