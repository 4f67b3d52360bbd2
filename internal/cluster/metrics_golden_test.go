package cluster

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"msod/internal/server"
)

var update = flag.Bool("update", false, "rewrite the golden /v1/metrics exposition shape")

// buildLabels are the only label values that depend on the build
// environment rather than on the code under test.
var buildLabels = regexp.MustCompile(`(version|go_version)="[^"]*"`)

// expositionShape reduces an exposition to what a dashboard or alert
// rule depends on: every comment line verbatim (HELP, TYPE, the
// aggregation banner), and every series with its name and label set
// but not its sample value.
func expositionShape(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i]
			}
			line = buildLabels.ReplaceAllString(line, `$1="*"`)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGatewayMetricsExpositionGolden freezes the gateway's aggregated
// /v1/metrics for a fixed 3-shard cluster of real PDPs: every HELP and
// TYPE line, the family order, and every series name with its label
// set, sample values stripped. A refactor of the scrape fan-out or the
// family merge that moves any of these fails here rather than in a
// dashboard. Regenerate deliberately with `go test -run
// TestGatewayMetricsExpositionGolden -update ./internal/cluster`.
func TestGatewayMetricsExpositionGolden(t *testing.T) {
	_, gts, c := newGateway(t, Config{Retries: -1, FailAfter: 1}, nil, urls(newShards(t, 3, shardSpec{trail: true}))...)
	for _, u := range []string{"u1", "u2", "u3", "u4"} {
		if _, err := c.Decision(server.DecisionRequest{
			User: u, Roles: []string{"Clerk"},
			Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
			Context: "TaxOffice=Leeds, taxRefundProcess=m" + u,
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := gts.Client().Get(gts.URL + server.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := expositionShape(string(raw))

	goldenPath := filepath.Join("testdata", "gateway_metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("exposition shape diverges from %s at line %d (got %d lines, want %d)\n got: %s\nwant: %s",
				goldenPath, i+1, len(gotLines), len(wantLines), g, w)
		}
	}
}
