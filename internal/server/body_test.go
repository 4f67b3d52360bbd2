package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

const clerkPrepares = `{"user":"c1","roles":["Clerk"],"operation":"prepareCheck",` +
	`"target":"http://www.myTaxOffice.com/Check","context":"TaxOffice=Leeds, taxRefundProcess=p1"}`

// postBody POSTs a body over a real connection and returns the status
// and the response text. A reader that is not a *bytes.Reader, *Buffer
// or *strings.Reader has no known length, so net/http sends it chunked.
func postBody(t *testing.T, url string, body io.Reader) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
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

// TestRequestBodyCap: the four body-reading handlers refuse a body past
// maxBodyBytes with 413 whether its length is declared or only found by
// reading, and never size a buffer by a declared length above the cap.
func TestRequestBodyCap(t *testing.T) {
	ts, p := startServer(t)
	// Valid JSON all the way, so only the size can be what is refused.
	oversize := `{"user":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{DecisionPath, AdvicePath, ManagementPath, ActivationPath} {
		if status, text := postBody(t, ts.URL+path, strings.NewReader(oversize)); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, declared length: %d %s; want 413", path, status, text)
		}
		if status, text := postBody(t, ts.URL+path, io.MultiReader(strings.NewReader(oversize))); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, chunked: %d %s; want 413", path, status, text)
		}
	}
	// The decision and advice handlers count what they refuse.
	if got := metricValue(t, metricsBody(t, ts.URL), "msod_request_errors_total"); got != 4 {
		t.Errorf("msod_request_errors_total = %d after four oversize decision and advice bodies, want 4", got)
	}
	if n := p.Store().Len(); n != 0 {
		t.Errorf("a refused body left %d retained records", n)
	}
	// A body exactly at the cap is read and answered for what it says.
	atCap := `{"user":"` + strings.Repeat("x", maxBodyBytes-len(`{"user":""}`)) + `"}`
	if status, text := postBody(t, ts.URL+DecisionPath, strings.NewReader(atCap)); status != http.StatusOK || !strings.Contains(text, `"phase":"rbac"`) {
		t.Errorf("body at the cap: %d %s; want the RBAC denial of a user without roles", status, text)
	}
}

// TestChunkedBodyDecodes: a body of undeclared length takes the capped
// ReadAll path and decides as any other.
func TestChunkedBodyDecodes(t *testing.T) {
	ts, p := startServer(t)
	status, text := postBody(t, ts.URL+DecisionPath, io.MultiReader(strings.NewReader(clerkPrepares)))
	var resp DecisionResponse
	if err := json.Unmarshal([]byte(text), &resp); err != nil || status != http.StatusOK || !resp.Allowed {
		t.Fatalf("chunked decision = %d %s (%v)", status, text, err)
	}
	if n := p.Store().Len(); n != 1 {
		t.Fatalf("retained ADI has %d records, want 1", n)
	}
}

// TestTrailingBytesRejected pins the one visible change of decoding a
// whole body instead of streaming its first value: anything but white
// space after the JSON value is a 400 (it used to be ignored), on every
// handler that reads a body. Only direct-to-shard callers can see it:
// the gateway forwards the PEP's bytes, but its own peek refuses
// trailing bytes first (TestGatewayTrailingBytesRejected).
func TestTrailingBytesRejected(t *testing.T) {
	ts, p := startServer(t)
	for _, path := range []string{DecisionPath, AdvicePath, ManagementPath, ActivationPath} {
		for _, tail := range []string{`{}`, `x`, "\n" + clerkPrepares} {
			if status, text := postBody(t, ts.URL+path, bytes.NewReader([]byte(clerkPrepares+tail))); status != http.StatusBadRequest {
				t.Errorf("%s with %q after the value: %d %s; want 400", path, tail, status, text)
			}
		}
	}
	if n := p.Store().Len(); n != 0 {
		t.Fatalf("a rejected body left %d retained records", n)
	}
	// Trailing white space is not trailing data.
	if status, text := postBody(t, ts.URL+DecisionPath, strings.NewReader(clerkPrepares+" \r\n\t")); status != http.StatusOK {
		t.Fatalf("trailing white space: %d %s; want 200", status, text)
	}
}
