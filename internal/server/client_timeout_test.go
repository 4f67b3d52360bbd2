package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestClientTimeout: a stalled PDP must not hang a deadline-bounded
// client — every API method returns within the configured timeout.
func TestClientTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); ts.Close() })

	c := NewClient(ts.URL, nil, WithTimeout(50*time.Millisecond))
	calls := map[string]func() error{
		"decision": func() error { _, err := c.Decision(DecisionRequest{}); return err },
		"advice":   func() error { _, err := c.Advice(DecisionRequest{}); return err },
		"manage":   func() error { _, err := c.Manage(ManagementWireRequest{}); return err },
		"health":   func() error { _, err := c.Health(); return err },
	}
	for name, call := range calls {
		start := time.Now()
		err := call()
		elapsed := time.Since(start)
		if err == nil {
			t.Errorf("%s: stalled server returned no error", name)
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			t.Errorf("%s: timeout surfaced as APIError %v", name, apiErr)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%s: returned after %v despite 50ms deadline", name, elapsed)
		}
	}
}

// TestClientNoTimeoutByDefault: the zero value keeps the old
// no-deadline behaviour (requests complete normally).
func TestClientNoTimeoutByDefault(t *testing.T) {
	ts, _ := startServer(t)
	c := NewClient(ts.URL, nil)
	if c.timeout != 0 {
		t.Fatalf("default timeout = %v", c.timeout)
	}
	if _, err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

// TestClientAPIErrorTyping: deliberate server rejections surface as
// *APIError with the status and message; transport failures do not.
func TestClientAPIErrorTyping(t *testing.T) {
	t.Run("status and message preserved", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusForbidden)
			w.Write([]byte(`{"error":"not the controller"}`))
		}))
		t.Cleanup(ts.Close)
		_, err := NewClient(ts.URL, nil).Manage(ManagementWireRequest{})
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("err = %v, want *APIError", err)
		}
		if apiErr.Status != http.StatusForbidden || apiErr.Message != "not the controller" || apiErr.Path != ManagementPath {
			t.Errorf("apiErr = %+v", apiErr)
		}
	})

	t.Run("non-JSON error body keeps the status", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
			w.Write([]byte("<html>upstream sad</html>"))
		}))
		t.Cleanup(ts.Close)
		_, err := NewClient(ts.URL, nil).Decision(DecisionRequest{})
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("err = %v, want *APIError", err)
		}
		if apiErr.Status != http.StatusBadGateway || apiErr.Message != "" {
			t.Errorf("apiErr = %+v", apiErr)
		}
	})

	t.Run("connection refused is not an APIError", func(t *testing.T) {
		_, err := NewClient("http://127.0.0.1:1", nil, WithTimeout(time.Second)).Decision(DecisionRequest{})
		if err == nil {
			t.Fatal("no error from unreachable host")
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			t.Errorf("transport failure typed as APIError: %v", apiErr)
		}
	})
}

// roundTripFunc is a RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientReusesASoonerCallerDeadline: a call whose context ends
// before the client's own timeout would is sent under the caller's
// deadline itself; a later caller deadline is cut to the client's
// timeout.
func TestClientReusesASoonerCallerDeadline(t *testing.T) {
	var got context.Context
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		got = r.Context()
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
			Body: io.NopCloser(strings.NewReader(`{}`)), ContentLength: 2}, nil
	})
	c := NewClient("http://pdp.invalid", &http.Client{Transport: rt}, WithTimeout(time.Hour))

	sooner, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.PostRaw(sooner, DecisionPath, "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	want, _ := sooner.Deadline()
	if got != sooner {
		deadline, ok := got.Deadline()
		t.Fatalf("sent under a context of its own (deadline %v, %v); want the caller's, ending %v", deadline, ok, want)
	}

	later, cancel := context.WithTimeout(context.Background(), 2*time.Hour)
	defer cancel()
	before := time.Now()
	if _, err := c.PostRaw(later, DecisionPath, "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if deadline, ok := got.Deadline(); !ok || deadline.After(time.Now().Add(time.Hour)) || deadline.Before(before.Add(time.Hour)) {
		t.Fatalf("sent with deadline %v (%v); want the client's hour from the call", deadline, ok)
	}
}

// TestClientBoundsWhatItReads: a 200 answer longer than maxBodyBytes —
// chunked, so no Content-Length announces it — is a failed exchange,
// never a verdict; an error answer's body is decoded no further than
// the limit, and its message says so (it was silently empty).
func TestClientBoundsWhatItReads(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == AdvicePath {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":"`+strings.Repeat("x", maxBodyBytes)+`"}`)
			return
		}
		w.Write(bytes.Repeat([]byte(" "), maxBodyBytes/2))
		w.(http.Flusher).Flush() // chunked from here: no Content-Length
		w.Write(bytes.Repeat([]byte(" "), maxBodyBytes/2+1))
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)

	answer, err := c.PostRaw(context.Background(), DecisionPath, "", []byte(`{}`))
	var apiErr *APIError
	if err == nil || errors.As(err, &apiErr) || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("an answer of %d bytes = %d bytes, %v; want a failure that is no *APIError", maxBodyBytes+1, len(answer), err)
	}

	_, err = c.PostRaw(context.Background(), AdvicePath, "", []byte(`{}`))
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Message != "error answer past the 1048576-byte read limit" {
		t.Fatalf("an oversized error body = %v; want a 400 *APIError whose message names the read limit", err)
	}
}
