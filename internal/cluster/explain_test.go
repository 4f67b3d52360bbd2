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
	_, gts, shards := newTestCluster(t, 3, Config{})
	shards[1].explainID = "req-42"

	c := server.NewClient(gts.URL, nil)
	rec, err := c.Explain("req-42")
	if err != nil {
		t.Fatal(err)
	}
	if rec.RequestID != "req-42" || rec.User != "c1" || rec.Outcome != "grant" {
		t.Fatalf("record through gateway = %+v", rec)
	}
	resp, err := http.Get(gts.URL + server.ExplainPath + "req-42")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Msod-Shard"); got != "shard01" {
		t.Fatalf("X-Msod-Shard = %q, want shard01 (the holder)", got)
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
	_, gts, shards := newTestCluster(t, 3, Config{})
	shards[2].explainID = "po/7"
	rec, err := server.NewClient(gts.URL, nil).Explain("po/7")
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
	gw, gts, shards := newTestCluster(t, 3, Config{FailAfter: 1})
	shards[0].explainID = "req-42"
	shards[2].ts.Close()
	gw.Checker().CheckNow()

	c := server.NewClient(gts.URL, nil)
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
	_, gts, _ := newTestCluster(t, 3, Config{})

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
	want := `msod_decision_duration_seconds_bucket{le="+Inf",shard="shard01"} 0 # {trace_id="stub-trace"} 0.001`
	if !strings.Contains(body, want) {
		t.Fatalf("merged body lost the shard exemplar, want %q:\n%s", want, body)
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
