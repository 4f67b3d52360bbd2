package cluster

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"msod/internal/server"
)

// TestGatewayExplainFanout: a request ID is not routable by hash, so
// the gateway asks every shard; the one holding the record answers
// and is named in the X-Msod-Shard header.
func TestGatewayExplainFanout(t *testing.T) {
	gw, gts, c := newGateway(t, Config{}, nil, urls(newShards(t, 3, shardSpec{}))...)
	req := tellerGrant(userOn(t, gw, "b", "user", 0))
	req.RequestID = "req-42"
	mustDecide(t, c, req, true)

	rec, err := c.Explain("req-42")
	if err != nil {
		t.Fatal(err)
	}
	if rec.RequestID != "req-42" || rec.User != req.User || rec.Outcome != "grant" {
		t.Fatalf("record through gateway = %+v", rec)
	}
	resp, err := http.Get(gts.URL + server.ExplainPath + "req-42")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Msod-Shard"); got != "b" {
		t.Fatalf("X-Msod-Shard = %q, want b (the holder)", got)
	}

	// With every shard answering, a miss everywhere is a confident 404.
	var apiErr *server.APIError
	if _, err := c.Explain("req-unknown"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("all-miss error = %v, want 404", err)
	}
}

// TestGatewayExplainRequestIDWithSlash: the gateway reads a request ID
// holding a "/" (sent as %2F) whole and asks the shards for it; a raw
// "/" after the prefix names no ID.
func TestGatewayExplainRequestIDWithSlash(t *testing.T) {
	gw, gts, c := newGateway(t, Config{}, nil, urls(newShards(t, 3, shardSpec{}))...)
	req := tellerGrant(userOn(t, gw, "c", "user", 0))
	req.RequestID = "po/7"
	mustDecide(t, c, req, true)
	rec, err := c.Explain("po/7")
	if err != nil || rec.RequestID != "po/7" {
		t.Fatalf("explain po/7 through the gateway = %+v, %v", rec, err)
	}
	resp, err := http.Get(gts.URL + server.ExplainPath + "po/7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("raw slash status = %d, want 400", resp.StatusCode)
	}
}

// TestGatewayExplainFailsClosed: with any shard down the record may be
// unreachable, so the gateway refuses to claim absence.
func TestGatewayExplainFailsClosed(t *testing.T) {
	shards := newShards(t, 3, shardSpec{})
	gw, _, c := newGateway(t, Config{FailAfter: 1}, nil, urls(shards)...)
	req := tellerGrant(userOn(t, gw, "a", "user", 0))
	req.RequestID = "req-42"
	mustDecide(t, c, req, true)
	shards[2].ts.Close()
	gw.Checker().CheckNow()

	var apiErr *server.APIError
	_, err := c.Explain("req-42")
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("explain with a down shard = %v, want 503", err)
	}
	if !strings.Contains(apiErr.Message, "full cluster") {
		t.Errorf("503 message %q does not explain the fail-closed rule", apiErr.Message)
	}
}

// TestGatewayMetricsOpenMetricsForwarding: an OpenMetrics scrape of
// the gateway negotiates the dialect with every shard, keeps their
// exemplars through the shard-relabelling merge, strips the per-shard
// EOF markers, and terminates the merged body with exactly one.
func TestGatewayMetricsOpenMetricsForwarding(t *testing.T) {
	gw, gts, c := newGateway(t, Config{}, nil, urls(newShards(t, 3, shardSpec{}))...)
	granted := mustDecide(t, c, tellerGrant("alice"), true)
	owner, _ := gw.ShardFor("alice")

	req, err := http.NewRequest(http.MethodGet, gts.URL+server.MetricsPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/openmetrics-text") {
		t.Fatalf("content type = %q", resp.Header.Get("Content-Type"))
	}
	if n := strings.Count(body, "# EOF"); n != 1 {
		t.Fatalf("EOF marker appears %d times, want exactly 1 (shard EOFs must not leak):\n%s", n, body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("body does not terminate with the EOF marker: ...%q", body[max(0, len(body)-40):])
	}
	exemplar := false
	for _, line := range strings.Split(body, "\n") {
		exemplar = exemplar || strings.HasPrefix(line, "msod_decision_duration_seconds_bucket{") &&
			strings.Contains(line, `,shard="`+owner+`"} `) && strings.Contains(line, ` # {trace_id="`+granted.TraceID+`"} `)
	}
	if !exemplar {
		t.Fatalf("merged body lost the exemplar of trace %s on shard %s:\n%s", granted.TraceID, owner, body)
	}

	// The classic scrape of the same gateway stays exemplar-free.
	classic, err := http.Get(gts.URL + server.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer classic.Body.Close()
	raw, err = io.ReadAll(classic.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "# {") || strings.Contains(string(raw), "# EOF") {
		t.Fatal("classic gateway scrape carries OpenMetrics syntax")
	}
}
