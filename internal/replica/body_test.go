package replica

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msod/internal/obsv"
	"msod/internal/server"
)

// startReplica runs a follower of a fresh owner until it has converged
// and serves it.
func startReplica(t *testing.T) (owner, replica *httptest.Server) {
	t.Helper()
	p, broker, ts := newOwner(t)
	grant(t, p, "älice", "Teller", "HandleCash", "till", "Branch=York, Period=2006")
	f, err := New(Config{Owner: ts.URL, Policy: testPolicy(t),
		ReconnectBackoff: 10 * time.Millisecond, ResyncBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = f.Run(ctx) }()
	waitConverged(t, f, broker)
	rs := httptest.NewServer(NewServer(f))
	t.Cleanup(rs.Close)
	return ts, rs
}

// postAdvice POSTs a body to base's advice path under a fixed trace ID
// and returns the status and the answer. A reader that is not a
// *strings.Reader has no known length, so net/http sends it chunked.
func postAdvice(t *testing.T, base string, body io.Reader) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+server.AdvicePath, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obsv.TraceparentHeader, obsv.TraceID("0af7651916cd43dd8448eb211c80319c").Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) > 1024 { // an echoed megabyte helps no failure message
		text = append(text[:1024:1024], "..."...)
	}
	return resp.StatusCode, string(text)
}

// TestReplicaAdviceReadsLikeTheShard: the replica's advice endpoint
// runs the shard's read stage, so it refuses what the shard refuses —
// a body past 1 MiB with 413, declared or chunked; bytes after the JSON
// value with 400 — and decodes what the shard decodes, escapes and
// non-ASCII included, into the same answer byte for byte.
func TestReplicaAdviceReadsLikeTheShard(t *testing.T) {
	owner, replica := startReplica(t)

	// Valid JSON all the way, so only the size can be what is refused.
	oversize := `{"user":"` + strings.Repeat("x", 1<<20) + `"}`
	if status, text := postAdvice(t, replica.URL, strings.NewReader(oversize)); status != http.StatusRequestEntityTooLarge {
		t.Errorf("declared length past the cap: %d %s; want 413", status, text)
	}
	if status, text := postAdvice(t, replica.URL, io.MultiReader(strings.NewReader(oversize))); status != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked past the cap: %d %s; want 413", status, text)
	}

	const advice = `{"user":"älice","roles":["Auditor"],"operation":"Audit","target":"ledger","context":"Branch=Leeds, Period=2006"}`
	for _, tail := range []string{`{}`, `x`, "\n" + advice} {
		if status, text := postAdvice(t, replica.URL, strings.NewReader(advice+tail)); status != http.StatusBadRequest {
			t.Errorf("%q after the value: %d %s; want 400", tail, status, text)
		}
	}

	// The same request spelled three ways: älice holds Teller in the
	// period, so the Auditor advice is the MMER denial — on the owner
	// and on the replica, from the same bytes to the same bytes.
	for _, body := range []string{
		advice,
		`{"user":"\u00e4lice","roles":["Aud\u0069tor"],"operation":"Audit","target":"ledger","context":"Branch=Leeds, Period=2006"}`,
		" {\n\"context\" : \"Branch=Leeds, Period=2006\", \"target\":\"ledger\", \"operation\":\"Audit\", \"roles\":[ \"Auditor\" ], \"user\":\"\\u00E4lice\", \"unknown\":{\"a\":[1,2]} }\r\n",
	} {
		ownerStatus, ownerText := postAdvice(t, owner.URL, strings.NewReader(body))
		status, text := postAdvice(t, replica.URL, strings.NewReader(body))
		if ownerStatus != http.StatusOK || !strings.Contains(ownerText, `"phase":"msod"`) || !strings.Contains(ownerText, `"user":"älice"`) {
			t.Errorf("owner on %s: %d %s; want the MMER denial of älice", body, ownerStatus, ownerText)
		}
		if status != ownerStatus || text != ownerText {
			t.Errorf("on %s:\nreplica %d %s\nowner   %d %s", body, status, text, ownerStatus, ownerText)
		}
	}
}
