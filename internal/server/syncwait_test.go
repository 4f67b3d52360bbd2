package server

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/fault"
	"msod/internal/fsx"
	"msod/internal/inspect"
	"msod/internal/pdp"
	"msod/internal/policy"
)

// parkingFS is the real filesystem with the WAL's Sync parked, once
// armed, until release is closed. Each parked Sync is announced on
// parked.
type parkingFS struct {
	fsx.FS
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func newParkingFS() *parkingFS {
	return &parkingFS{FS: fsx.OS, parked: make(chan struct{}, 1), release: make(chan struct{})}
}

func (p *parkingFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != "wal.log" {
		return f, err
	}
	return &parkingFile{File: f, fs: p}, nil
}

type parkingFile struct {
	fsx.File
	fs *parkingFS
}

func (f *parkingFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.parked <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestParkedGrantSyncBlocksNoOtherDecision: a durable grant's WAL sync
// runs outside the engine and commit locks. While Alice's grant waits
// on its sync, Bob's MSoD denial and an advisory are decided and
// answered; Alice's answer, and the idempotency entry it commits under
// her RequestID, appear only once the sync returns.
func TestParkedGrantSyncBlocksNoOtherDecision(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	pfs := newParkingFS()
	ds, err := adi.OpenDurableFS(t.TempDir(), []byte("parked-sync"), true, pfs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	broker := inspect.NewBroker(64)
	p, err := pdp.New(pdp.Config{Policy: pol, Store: ds, Observer: func(ev inspect.DecisionEvent) { broker.Publish(ev) }})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p)
	var once sync.Once
	release := func() { once.Do(func() { close(pfs.release) }) }
	t.Cleanup(release)

	serve := func(path string, req DecisionRequest) (int, DecisionResponse) {
		body, _ := json.Marshal(req)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		var resp DecisionResponse
		_ = json.Unmarshal(w.Body.Bytes(), &resp)
		return w.Code, resp
	}
	// within runs a request and fails the test unless it is answered
	// within the deadline.
	within := func(what string, path string, req DecisionRequest) DecisionResponse {
		t.Helper()
		type answer struct {
			code int
			resp DecisionResponse
		}
		done := make(chan answer, 1)
		go func() {
			code, resp := serve(path, req)
			done <- answer{code, resp}
		}()
		select {
		case a := <-done:
			if a.code != http.StatusOK {
				t.Fatalf("%s: status %d", what, a.code)
			}
			return a.resp
		case <-time.After(5 * time.Second):
			t.Fatalf("%s is not answered while another grant's WAL sync is parked", what)
		}
		return DecisionResponse{}
	}
	const period = "Branch=York, Period=2006"
	if code, resp := serve(DecisionPath, DecisionRequest{User: "bob", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: period}); code != http.StatusOK || !resp.Allowed {
		t.Fatalf("bob's teller grant: %d %+v", code, resp)
	}

	pfs.armed.Store(true)
	alice := make(chan DecisionResponse, 1)
	go func() {
		code, resp := serve(DecisionPath, DecisionRequest{
			RequestID: "alice-1",
			User:      "alice", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: period,
		})
		if code != http.StatusOK {
			resp.Reason = "status " + http.StatusText(code)
		}
		alice <- resp
	}()
	select {
	case <-pfs.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("alice's grant never reached the WAL sync")
	}

	auditor := DecisionRequest{User: "bob", Roles: []string{"Auditor"}, Operation: "Audit", Target: "ledger", Context: period}
	if resp := within("bob's MSoD denial", DecisionPath, auditor); resp.Allowed || resp.Phase != "msod" {
		t.Fatalf("bob's auditor request = %+v, want an MSoD denial", resp)
	}
	if resp := within("bob's advisory", AdvicePath, auditor); resp.Allowed || resp.Phase != "msod" {
		t.Fatalf("bob's auditor advisory = %+v, want an MSoD denial", resp)
	}

	select {
	case resp := <-alice:
		t.Fatalf("alice answered before her sync returned: %+v", resp)
	default:
	}
	committed := func() (*DecisionResponse, bool) {
		e, ok := srv.idem.lookup("alice-1")
		if e.packed == "" {
			return nil, ok
		}
		resp := replayed(t, e, "alice-1")
		return &resp, ok
	}
	if resp, ok := committed(); !ok || resp != nil {
		t.Fatalf("alice's idempotency entry before her sync returned: %+v (present %v), want in flight", resp, ok)
	}

	release()
	select {
	case resp := <-alice:
		if !resp.Allowed || resp.Recorded != 1 {
			t.Fatalf("alice's grant = %+v", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("alice is not answered after her sync returned")
	}
	if resp, ok := committed(); !ok || resp == nil || !resp.Allowed {
		t.Fatalf("alice's idempotency entry after her sync: %+v (present %v), want her committed grant", resp, ok)
	}
}

// TestFailedGrantSyncAnswers503: when the sync a durable grant waits on
// fails, the grant is answered a terminal 503 and latches read-only
// mode, and nothing is written for it: no trail entry, and no
// idempotency entry (a retry under the RequestID executes again, and
// is refused up front). Its record stays in the in-memory retained ADI
// — deny-safe over-recording, since it was never acknowledged.
func TestFailedGrantSyncAnswers503(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	ffs := fault.NewFS(fsx.OS, 11)
	ds, err := adi.OpenDurableFS(t.TempDir(), []byte("failed-sync"), true, ffs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	trail, err := audit.NewWriter(t.TempDir(), []byte("failed-sync-trail"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trail.Close() })
	p, err := pdp.New(pdp.Config{Policy: pol, Store: ds, Trail: trail})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p)
	serve := func(req DecisionRequest) *httptest.ResponseRecorder {
		body, _ := json.Marshal(req)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(body)))
		return w
	}
	grant := func(user string) DecisionRequest {
		return DecisionRequest{RequestID: user + "-1", User: user, Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=2006"}
	}
	if w := serve(grant("bob")); w.Code != http.StatusOK {
		t.Fatalf("healthy grant: %d %s", w.Code, w.Body)
	}
	trailed, held := trail.Seq(), ds.Len()

	// alice's grant: op+1 is its WAL write, op+2 the sync it waits on.
	ffs.InjectAt(ffs.Ops()+2, fault.SyncFail)
	if w := serve(grant("alice")); w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "" {
		t.Fatalf("grant whose sync failed: %d %s (Retry-After %q), want a terminal 503", w.Code, w.Body, w.Header().Get("Retry-After"))
	}
	if !srv.degraded.Load() {
		t.Fatal("a failed grant sync did not latch read-only mode")
	}
	if n := trail.Seq(); n != trailed {
		t.Fatalf("trail at seq %d after the failed grant, want %d: it was trailed", n, trailed)
	}
	_, cached := srv.idem.lookup("alice-1")
	if cached {
		t.Fatal("the failed grant left an idempotency entry")
	}
	if n := ds.Len(); n != held+1 {
		t.Fatalf("retained ADI holds %d records, want %d: the unsynced record stays in memory", n, held+1)
	}
	if w := serve(grant("alice")); w.Code != http.StatusServiceUnavailable || !bytes.Contains(w.Body.Bytes(), []byte("read-only")) {
		t.Fatalf("retry: %d %s, want refused up front as read-only", w.Code, w.Body)
	}
}
