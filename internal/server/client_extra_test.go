package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestClientAgainstBrokenServer exercises the client's error paths:
// non-JSON bodies, non-200 statuses with and without error payloads,
// unreachable hosts.
func TestClientAgainstBrokenServer(t *testing.T) {
	t.Run("non-json decision body", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("not json"))
		}))
		t.Cleanup(ts.Close)
		c := NewClient(ts.URL, nil)
		if _, err := c.Decision(DecisionRequest{}); err == nil {
			t.Error("non-JSON body accepted")
		}
		if _, err := c.Health(); err == nil {
			t.Error("non-JSON health accepted")
		}
	})

	t.Run("error status with payload", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusForbidden)
			w.Write([]byte(`{"error":"nope"}`))
		}))
		t.Cleanup(ts.Close)
		c := NewClient(ts.URL, nil)
		_, err := c.Manage(ManagementWireRequest{})
		if err == nil || !strings.Contains(err.Error(), "nope") {
			t.Errorf("error payload not surfaced: %v", err)
		}
	})

	t.Run("error status without payload", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
		}))
		t.Cleanup(ts.Close)
		c := NewClient(ts.URL, nil)
		_, err := c.Decision(DecisionRequest{})
		if err == nil || !strings.Contains(err.Error(), "502") {
			t.Errorf("status not surfaced: %v", err)
		}
	})

	t.Run("unreachable host", func(t *testing.T) {
		c := NewClient("http://127.0.0.1:1", nil)
		if _, err := c.Decision(DecisionRequest{}); err == nil {
			t.Error("unreachable host accepted")
		}
		if _, err := c.Health(); err == nil {
			t.Error("unreachable health accepted")
		}
	})

	t.Run("unhealthy health status", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"status":"down"}`))
		}))
		t.Cleanup(ts.Close)
		c := NewClient(ts.URL, nil)
		if _, err := c.Health(); err == nil {
			t.Error("unhealthy status accepted")
		}
	})
}

// TestServerMethodAndBodyErrors exercises the handler-side rejects.
func TestServerMethodAndBodyErrors(t *testing.T) {
	ts, _ := startServer(t)

	// GET on POST-only endpoints.
	for _, path := range []string{DecisionPath, AdvicePath, ManagementPath} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	// Malformed JSON bodies.
	for _, path := range []string{DecisionPath, ManagementPath} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed POST %s = %d", path, resp.StatusCode)
		}
	}
	// Management with a purgeBefore cutoff.
	c := NewClient(ts.URL, nil)
	if _, err := c.Decision(DecisionRequest{
		User: "c1", Roles: []string{"Clerk"},
		Operation: "prepareCheck", Target: "http://www.myTaxOffice.com/Check",
		Context: "TaxOffice=Leeds, taxRefundProcess=p1",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClientPostWireShape: a POST reaches the server with exactly the
// headers the client set and the two net/http cannot leave out — no
// User-Agent, and no gzip offer from the Transport — whether its URL was
// parsed with the client (a decision, an advisory) or at the call, and
// the GetBody the Transport would rewind with yields the bytes sent.
func TestClientPostWireShape(t *testing.T) {
	const traceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	body := []byte(`{"user":"alice","roles":["Teller"]}`)
	var (
		mu      sync.Mutex
		headers http.Header
		got     []byte
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		headers, got = r.Header.Clone(), b
		mu.Unlock()
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(ts.Close)
	var rewound []byte
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		rewound = nil
		if r.GetBody != nil {
			if rc, err := r.GetBody(); err == nil {
				rewound, _ = io.ReadAll(rc)
			}
		}
		return http.DefaultTransport.RoundTrip(r)
	})
	c := NewClient(ts.URL, &http.Client{Transport: rt})
	for _, path := range []string{DecisionPath, AdvicePath, ManagementPath} {
		if _, err := c.PostRaw(context.Background(), path, traceparent, body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		mu.Lock()
		want := http.Header{
			"Content-Type":    {"application/json"},
			"Content-Length":  {strconv.Itoa(len(body))},
			"Traceparent":     {traceparent},
			"Accept-Encoding": {"identity"},
		}
		if !reflect.DeepEqual(headers, want) || !bytes.Equal(got, body) {
			t.Errorf("%s: the server read headers %v and body %s; want %v and %s", path, headers, got, want, body)
		}
		mu.Unlock()
		if !bytes.Equal(rewound, body) {
			t.Errorf("%s: GetBody yields %q, want the bytes sent", path, rewound)
		}
	}
}
