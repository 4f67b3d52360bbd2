package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"msod/internal/obsv"
	"msod/internal/server"
)

// gatewayBodyCap is the shards' cap (server.ReadBody's), which the
// gateway now reads under too.
const gatewayBodyCap = 1 << 20

// filler is a request body of left more 'x' bytes, sent chunked (a
// reader net/http knows no length of); sent counts what the HTTP client
// took of it before the gateway stopped reading (it may still be
// reading when the answer is already back).
type filler struct {
	left int
	sent atomic.Int64
}

func (f *filler) Read(p []byte) (int, error) {
	if f.left == 0 {
		return 0, io.EOF
	}
	n := min(len(p), f.left)
	for i := range p[:n] {
		p[i] = 'x'
	}
	f.left -= n
	f.sent.Add(int64(n))
	return n, nil
}

// bodyReadingPaths are the gateway's handlers that read a request body.
var bodyReadingPaths = []string{server.DecisionPath, server.AdvicePath, server.ManagementPath, ClusterJoinPath, ClusterDrainPath, ClusterRemovePath}

// TestGatewayBodyCap: every gateway handler that reads a body refuses
// one past the cap with a 413 — by its declared length without reading
// it, or, chunked, without buffering past the cap — counts it as a bad
// request, and bothers no shard; a body exactly at the cap is routed
// (an advisory: a decision's spliced requestID would count against the
// shard's own cap).
func TestGatewayBodyCap(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t), newRecordingShard(t)}
	_, gts, _ := newGateway(t, Config{}, nil, shards[0].ts.URL, shards[1].ts.URL)
	// Valid JSON all the way, so only the size can be what is refused.
	oversize := `{"user":"` + strings.Repeat("x", gatewayBodyCap) + `"}`
	for _, path := range bodyReadingPaths {
		if status, text := post(t, gts.URL+path, oversize); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, declared length: %d %.200s; want 413", path, status, text)
		}
		// 64 times the cap is on offer. The gateway answers once it has
		// read the cap and stops reading: the client gets rid of what the
		// connection's buffers absorb, never of the whole body.
		body := &filler{left: 64 * gatewayBodyCap}
		resp, err := http.Post(gts.URL+path, "application/json", io.MultiReader(strings.NewReader(`{"user":"`), body))
		if err != nil {
			t.Fatalf("%s, chunked: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, chunked: %d; want 413", path, resp.StatusCode)
		}
		if sent := body.sent.Load(); sent > 32*gatewayBodyCap {
			t.Errorf("%s, chunked: the gateway let %d bytes of a body capped at %d be sent", path, sent, gatewayBodyCap)
		}
	}
	if got := gatewayCounter(t, gts.URL, "msodgw_bad_requests_total"); got != "12" {
		t.Errorf("msodgw_bad_requests_total = %s after twelve oversize bodies, want 12", got)
	}
	atCap := `{"user":"` + strings.Repeat("x", gatewayBodyCap-len(`{"user":""}`)) + `"}`
	if status, text := post(t, gts.URL+server.AdvicePath, atCap); status != http.StatusBadGateway || !strings.Contains(text, "resolved the subject") {
		// Routed and answered (the recording shard answers for "alice", so the
		// ownership check withholds it): the body was read whole.
		t.Errorf("advice at the cap: %d %.200s; want it routed", status, text)
	}
	seen := 0
	for _, s := range shards {
		seen += len(s.received(server.DecisionPath)) + len(s.received(server.ManagementPath))
		for _, body := range s.received(server.AdvicePath) {
			if seen++; len(body) != gatewayBodyCap {
				t.Errorf("a shard received an advice body of %d bytes", len(body))
			}
		}
	}
	if seen != 1 {
		t.Errorf("shards saw %d bodies, want only the one at the cap", seen)
	}
}

// TestGatewayChunkedBodyRouted: a body of undeclared length takes the
// capped ReadAll path, is routed and — read with no spare capacity —
// still gets its requestID.
func TestGatewayChunkedBodyRouted(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t)}
	_, gts, _ := newGateway(t, Config{}, nil, shards[0].ts.URL)
	const body = `{"user":"alice","operation":"op","target":"t","context":"P=1"}`
	resp, err := http.Post(gts.URL+server.DecisionPath, "application/json", io.MultiReader(strings.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	answer, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(answer) != aliceGranted {
		t.Fatalf("chunked decision = %d %s", resp.StatusCode, answer)
	}
	bodies := shards[0].received(server.DecisionPath)
	if len(bodies) != 1 || !strings.HasPrefix(string(bodies[0]), body[:len(body)-1]+`,"requestID":"`) {
		t.Fatalf("shard received %q, want the chunked body with a requestID", bodies)
	}
}

// TestGatewayTrailingBytesRejected: anything but white space after the
// JSON value is a 400 at the gateway, on every handler that reads a
// body (a streaming Decoder used to ignore it; forwarded, it would only
// be refused a hop later).
func TestGatewayTrailingBytesRejected(t *testing.T) {
	shards := []*recordingShard{newRecordingShard(t)}
	_, gts, _ := newGateway(t, Config{}, nil, shards[0].ts.URL)
	const body = `{"user":"alice","id":"shard09","operation":"op","target":"t","context":"P=1"}`
	for _, path := range bodyReadingPaths {
		for _, tail := range []string{`{}`, `x`, "\n" + body} {
			if status, text := post(t, gts.URL+path, body+tail); status != http.StatusBadRequest {
				t.Errorf("%s with %q after the value: %d %s; want 400", path, tail, status, text)
			}
		}
	}
	if got := gatewayCounter(t, gts.URL, "msodgw_bad_requests_total"); got != "18" {
		t.Errorf("msodgw_bad_requests_total = %s after eighteen bodies with trailing bytes, want 18", got)
	}
	for _, path := range []string{server.DecisionPath, server.AdvicePath, server.ManagementPath} {
		if bodies := shards[0].received(path); len(bodies) != 0 {
			t.Errorf("%s: a refused body reached the shard: %q", path, bodies)
		}
	}
	// Trailing white space is not trailing data.
	if status, text := post(t, gts.URL+server.DecisionPath, body+" \r\n\t"); status != http.StatusOK {
		t.Fatalf("trailing white space: %d %s; want 200", status, text)
	}
}

// gatewayCounter reads one of the gateway's own counters off its
// metrics scrape.
func gatewayCounter(t *testing.T, gtsURL, name string) string {
	t.Helper()
	resp, err := http.Get(gtsURL + server.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("gateway metrics missing %s", name)
	return ""
}

// longTargetDenial is the raw body of an RBAC denial whose target is
// 300,000 '<': a 300 KB request, an event line of megabytes once '<' is
// escaped.
func longTargetDenial(user string) []byte {
	return []byte(`{"user":"` + user + `","roles":["Teller"],"operation":"HandleCash","target":"` +
		strings.Repeat("<", 300_000) + `","context":"Branch=York, Period=p1"}`)
}

// oversizedGrant is the raw body of a Teller grant whose answer is past
// the gateway's 1 MiB read cap though its request is under it: its user
// is 350,000 bytes of invalid UTF-8, each decoded, and echoed, as the
// 3-byte U+FFFD. It returns the user the shard decides for, the key
// the gateway routes on.
func oversizedGrant() (body []byte, user string) {
	return []byte(`{"user":"` + strings.Repeat("\xff", 350_000) +
			`","roles":["Teller"],"operation":"HandleCash","target":"till","context":"Branch=York, Period=p1"}`),
		strings.Repeat("\uFFFD", 350_000)
}

// TestGatewayLongRequestTakesNoShardDown: one request may make a shard
// write an answer past the gateway's 1 MiB read cap — a grant echoes its
// user, and oversizedGrant's comes back three times as long. That
// answer is refused with a 502 and is no shard failure: it is not
// retried, and the shard stays Up for its other users. A grant whose
// user is 300,000 '<' is answered as granted ('<' is one byte on the
// wire), and an RBAC denial of a target as long is answered in a few
// bytes: its reason does not copy the target.
func TestGatewayLongRequestTakesNoShardDown(t *testing.T) {
	gw, _, c := newGateway(t, Config{}, nil, urls(newShards(t, 3, handoff))...)
	ctx := context.Background()
	huge := strings.Repeat("<", 300_000)
	hugeOwner, _ := gw.ShardFor(huge)
	user := userOn(t, gw, hugeOwner, "teller", 0)

	answer, err := c.PostRaw(ctx, server.DecisionPath, "", longTargetDenial(user))
	if err != nil || len(answer) >= 4<<10 || !strings.Contains(string(answer), `"allowed":false`) {
		t.Fatalf("the long-target request = %d bytes %.200s, %v; want a denial under 4 KiB", len(answer), answer, err)
	}
	grant := []byte(`{"user":"` + huge + `","roles":["Teller"],"operation":"HandleCash","target":"till","context":"Branch=York, Period=p1"}`)
	answer, err = c.PostRaw(ctx, server.DecisionPath, "", grant)
	if err != nil || !strings.Contains(string(answer), `"allowed":true`) {
		t.Fatalf("the huge-user grant = %d bytes %.200s, %v; want it granted", len(answer), answer, err)
	}

	oversized, key := oversizedGrant()
	owner, _ := gw.ShardFor(key)
	_, err = c.PostRaw(ctx, server.DecisionPath, "", oversized)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway || !strings.Contains(apiErr.Message, "past the gateway's read limit") {
		t.Fatalf("the oversized grant = %.300v, want a 502 for its answer's size", err)
	}
	if !gw.Checker().Up(owner) {
		t.Fatalf("shard %s is %+v after one oversized answer, want Up", owner, gw.Checker().Statuses()[owner])
	}
	if got := gw.metrics.retries.Load(); got != 0 {
		t.Errorf("%d retries, want the oversized answer never asked for again", got)
	}
	ok, err := c.Decision(server.DecisionRequest{User: userOn(t, gw, owner, "teller", 0), Roles: []string{"Teller"},
		Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"})
	if err != nil || !ok.Allowed {
		t.Fatalf("the next ordinary decision on shard %s = %+v, %v; want a grant", owner, ok, err)
	}
}

// TestRefusalLogsABoundedKey: the 502 for oversizedGrant logs one
// "refused" line, and that line carries a prefix of the routing key and
// its length, not the key: under 1 KB, where the whole key made it as
// long as the request.
func TestRefusalLogsABoundedKey(t *testing.T) {
	logBuf := &syncBuffer{}
	_, _, c := newGateway(t, Config{Logger: obsv.NewLogger(logBuf, "msodgw")}, nil, urls(newShards(t, 1, handoff))...)
	grant, key := oversizedGrant()
	_, err := c.PostRaw(context.Background(), server.DecisionPath, "", grant)
	var apiErr *server.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway || !strings.Contains(apiErr.Message, "past the gateway's read limit") {
		t.Fatalf("the oversized grant = %.300v, want a 502 for its answer's size", err)
	}
	var refused []string
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(line, `"msg":"refused"`) {
			refused = append(refused, line)
		}
	}
	if len(refused) != 1 {
		t.Fatalf("%d refused lines, want 1", len(refused))
	}
	if line := refused[0]; len(line) >= 1<<10 || !strings.Contains(line, fmt.Sprintf(`"userBytes":%d`, len(key))) {
		t.Fatalf("the refused line is %d bytes: %.300s; want under 1 KB, naming the key's length", len(line), line)
	}
}

// TestDecisionLogsABoundedUser: a granted decision whose user is 300,000
// '<', answered by a shard that spells it unescaped (so the answer is
// under the read limit and forwarded), logs one "decision" line under
// 1 KB at a zero threshold.
func TestDecisionLogsABoundedUser(t *testing.T) {
	logBuf := &syncBuffer{}
	shards := []*recordingShard{newRecordingShard(t)}
	_, gts, _ := newGateway(t, Config{Logger: obsv.NewLogger(logBuf, "msodgw")}, nil, shards[0].ts.URL)
	huge := strings.Repeat("<", 300_000)
	shards[0].script(func(string, int) (int, string, bool) {
		return http.StatusOK, `{"allowed":true,"phase":"granted","user":"` + huge + `"}`, false
	})
	if status, _ := post(t, gts.URL+server.DecisionPath, `{"user":"`+huge+`","operation":"HandleCash","target":"till","context":"P=1"}`); status != http.StatusOK {
		t.Fatalf("the huge-user grant answered %d, want 200", status)
	}
	var decisions []string
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(line, `"msg":"decision"`) {
			decisions = append(decisions, line)
		}
	}
	if len(decisions) != 1 {
		t.Fatalf("%d decision lines, want 1", len(decisions))
	}
	if line := decisions[0]; len(line) >= 1<<10 || !strings.Contains(line, `"userBytes":300000`) {
		t.Fatalf("the decision line is %d bytes: %.300s; want under 1 KB, naming the user's length", len(line), line)
	}
}
