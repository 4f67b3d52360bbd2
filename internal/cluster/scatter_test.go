package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msod/internal/server"
)

// serve starts one shard per handler and lists their URLs.
func serve(t *testing.T, handlers ...http.HandlerFunc) []string {
	t.Helper()
	urls := make([]string, len(handlers))
	for i, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// scatterConfig: a single reported failure marks a shard Down.
var scatterConfig = Config{FailAfter: 1, Timeout: 2 * time.Second}

// dropConnection makes the caller see a transport error.
func dropConnection(w http.ResponseWriter, _ *http.Request) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		panic(err)
	}
	conn.Close()
}

func refuseWith(status int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]string{"error": "refused by test"})
	}
}

func answerAfter(d time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(d)
		json.NewEncoder(w).Encode(server.ActivationResponse{})
	}
}

// hangingShard is a shard that never answers: each call signals
// entered, then aborted once the gateway has dropped it.
func hangingShard() (h http.HandlerFunc, entered, aborted chan struct{}) {
	entered, aborted = make(chan struct{}, 2), make(chan struct{}, 2)
	return func(_ http.ResponseWriter, r *http.Request) {
		// The server only watches for the peer closing the connection
		// once the request body has been read.
		io.Copy(io.Discard, r.Body)
		entered <- struct{}{}
		<-r.Context().Done()
		aborted <- struct{}{}
	}, entered, aborted
}

// awaitCalls waits for one signal per shard on ch.
func awaitCalls(t *testing.T, ch <-chan struct{}, n int, failure string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-time.After(time.Second):
			t.Fatal(failure)
		}
	}
}

// activeContexts is the scatter body the tests use: one GET per shard.
func activeContexts(ctx context.Context, _ string, c *server.Client) ([]string, error) {
	return c.ActiveContexts(ctx)
}

// TestScatterOrderAndClassification: results come back in the order of
// the shard list however the shards' answers interleave; a deliberate
// answer is classified as such and leaves the shard Up; a transport
// failure is reported to the checker.
func TestScatterOrderAndClassification(t *testing.T) {
	tests := []struct {
		name    string
		handler http.HandlerFunc
		wantErr bool
		wantAPI int // deliberate status, 0 for none
		wantUp  bool
	}{
		{"slowest answers last, listed first", answerAfter(120 * time.Millisecond), false, 0, true},
		{"deliberate refusal", refuseWith(http.StatusForbidden), true, http.StatusForbidden, true},
		{"transport failure", dropConnection, true, 0, false},
		{"deliberate not-found", refuseWith(http.StatusNotFound), true, http.StatusNotFound, true},
		{"fast answer", answerAfter(0), false, 0, true},
	}
	handlers := make([]http.HandlerFunc, len(tests))
	for i, tc := range tests {
		handlers[i] = tc.handler
	}
	gw, _, _ := newGateway(t, scatterConfig, nil, serve(t, handlers...)...)
	ids := gw.shards(tracked)
	results := scatter(context.Background(), gw, ids, activeContexts)
	if len(results) != len(tests) {
		t.Fatalf("%d results for %d shards", len(results), len(tests))
	}
	for i, tc := range tests {
		res := results[i]
		if res.shard != ids[i] {
			t.Errorf("%s: result %d is shard %s, want %s", tc.name, i, res.shard, ids[i])
		}
		if (res.err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, res.err, tc.wantErr)
		}
		switch {
		case tc.wantAPI == 0 && res.api != nil:
			t.Errorf("%s: classified deliberate (%d), want not", tc.name, res.api.Status)
		case tc.wantAPI != 0 && (res.api == nil || res.api.Status != tc.wantAPI):
			t.Errorf("%s: api = %+v, want deliberate %d", tc.name, res.api, tc.wantAPI)
		}
		if up := gw.Checker().Up(ids[i]); up != tc.wantUp {
			t.Errorf("%s: shard Up = %v after the scatter, want %v", tc.name, up, tc.wantUp)
		}
	}
}

// TestScatterCallerCancellation: when the caller gives up, the in-flight
// shard calls are aborted, scatter returns promptly, and no shard is
// blamed for it.
func TestScatterCallerCancellation(t *testing.T) {
	hang, entered, aborted := hangingShard()
	gw, _, _ := newGateway(t, scatterConfig, nil, serve(t, hang, hang)...)
	ids := gw.shards(tracked)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		<-entered
		cancel()
	}()
	start := time.Now()
	results := scatter(ctx, gw, ids, activeContexts)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("scatter returned %v after the caller cancelled; want promptly (shard timeout is 2s)", elapsed)
	}
	for _, res := range results {
		if !errors.Is(res.err, context.Canceled) {
			t.Errorf("shard %s: err = %v, want context.Canceled", res.shard, res.err)
		}
		if !gw.Checker().Up(res.shard) {
			t.Errorf("shard %s marked Down because the caller hung up", res.shard)
		}
	}
	awaitCalls(t, aborted, len(ids), "a shard call outlived the caller's cancellation")
}

// TestFanoutsHonourCallerCancellation drives the same property through
// every handler that fans out: a client that hangs up stops the shard
// calls made on its behalf.
func TestFanoutsHonourCallerCancellation(t *testing.T) {
	for _, tc := range []struct{ name, method, path, body string }{
		{"explain", http.MethodGet, server.ExplainPath + "req-1", ""},
		{"traces", http.MethodGet, server.TracesPath + "trace-1", ""},
		{"metrics", http.MethodGet, server.MetricsPath, ""},
		{"context state", http.MethodGet, server.StateContextsPath + "P=1", ""},
		{"management", http.MethodPost, server.ManagementPath, "{}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hang, entered, aborted := hangingShard()
			gw, _, _ := newGateway(t, scatterConfig, nil, serve(t, hang, hang)...)
			ids := gw.shards(tracked)
			ctx, cancel := context.WithCancel(context.Background())
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				gw.ServeHTTP(httptest.NewRecorder(), req)
			}()
			awaitCalls(t, entered, len(ids), "the fan-out did not reach every shard")
			cancel()
			awaitCalls(t, aborted, len(ids), "a shard call outlived the client's cancellation (shard timeout is 2s)")
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("handler did not return after the client hung up")
			}
		})
	}
}

// TestRequireUpRefusals pins the fail-closed 503 each all-Up fan-out
// writes when a shard of its set is Down: status, body and the
// msodgw_unavailable_total increment.
func TestRequireUpRefusals(t *testing.T) {
	ok := func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "{}") }
	gw, _, _ := newGateway(t, scatterConfig, nil, serve(t, ok, ok)...)
	ids := gw.shards(tracked)
	gw.Checker().ReportFailure(ids[1], errors.New("probe failed"))
	for _, tc := range []struct{ name, method, path, body, want string }{
		{"management", http.MethodPost, server.ManagementPath, "{}",
			"shard b is down; management requires the full cluster (a partial purge would silently keep records)"},
		{"context state", http.MethodGet, server.StateContextsPath + "P=1", "",
			"shard b is down; context state requires the full cluster (a partial answer would hide that shard's users)"},
		{"explain", http.MethodGet, server.ExplainPath + "req-1", "",
			"shard b is down; explain requires the full cluster (the record may live on the down shard)"},
		{"traces", http.MethodGet, server.TracesPath + "trace-1", "",
			"shard b is down; trace assembly requires the full cluster (part of the tree may live on the down shard)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := gw.metrics.unavailable.Load()
			rec := httptest.NewRecorder()
			gw.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503", rec.Code)
			}
			raw, _ := io.ReadAll(rec.Body)
			want := fmt.Sprintf("{\"error\":%q}\n", tc.want)
			if string(raw) != want {
				t.Errorf("body = %s\nwant   %s", raw, want)
			}
			if got := gw.metrics.unavailable.Load() - before; got != 1 {
				t.Errorf("msodgw_unavailable_total moved by %d, want 1", got)
			}
		})
	}
}
