package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/fsx"
	"msod/internal/rbac"
	"msod/internal/server"
)

// counter names one always-on work count taken at the same boundaries
// as the spans.
type counter int

const (
	adiReads counter = iota
	adiAppends
	adiPurges
	walWrites
	walBytes
	walSyncs
	trailWrites
	trailBytes
	trailSyncs
	hopCalls
	hopActivations
	hopBytes
	hopDials
	numCounters
)

// counters cost one atomic add each and are present in traced and
// untraced runs alike, so both measure the same program.
type counters [numCounters]atomic.Int64

// work is a reading of the counters.
type work [numCounters]int64

func (c *counters) snapshot() (w work) {
	for i := range c {
		w[i] = c[i].Load()
	}
	return w
}

func (w work) minus(o work) work {
	for i := range w {
		w[i] -= o[i]
	}
	return w
}

// probe bundles what every wrapper needs.
type probe struct {
	t *tracer
	c *counters
}

// tracedStore interposes on the adi.Recorder a PDP is built over. It
// forwards adi.CtxAppender and adi.Browser, which the engine and the
// server discover by type assertion.
type tracedStore struct {
	probe
	inner    adi.Recorder
	ctxInner adi.CtxAppender // nil when inner has no context-aware append
	browser  adi.Browser
}

var (
	_ adi.Recorder    = (*tracedStore)(nil)
	_ adi.CtxAppender = (*tracedStore)(nil)
	_ adi.Browser     = (*tracedStore)(nil)
)

func newTracedStore(p probe, inner adi.Recorder) (*tracedStore, error) {
	s := &tracedStore{probe: p, inner: inner}
	s.ctxInner, _ = inner.(adi.CtxAppender)
	browser, ok := adi.BrowserFor(inner)
	if !ok {
		return nil, fmt.Errorf("store %T has no browse surface; the server's introspection would be silently off", inner)
	}
	s.browser = browser
	return s, nil
}

func (s *tracedStore) Append(recs ...adi.Record) error {
	s.c[adiAppends].Add(1)
	defer s.t.end(layerADIAppend, s.t.begin())
	return s.inner.Append(recs...)
}

func (s *tracedStore) AppendCtx(ctx context.Context, recs ...adi.Record) error {
	s.c[adiAppends].Add(1)
	defer s.t.end(layerADIAppend, s.t.begin())
	if s.ctxInner != nil {
		return s.ctxInner.AppendCtx(ctx, recs...)
	}
	return s.inner.Append(recs...)
}

func (s *tracedStore) UserHasRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName) (bool, error) {
	s.c[adiReads].Add(1)
	defer s.t.end(layerADIRead, s.t.begin())
	return s.inner.UserHasRole(user, pattern, role)
}

func (s *tracedStore) UserHasPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission) (bool, error) {
	s.c[adiReads].Add(1)
	defer s.t.end(layerADIRead, s.t.begin())
	return s.inner.UserHasPrivilege(user, pattern, p)
}

func (s *tracedStore) CountUserRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName, max int) (int, error) {
	s.c[adiReads].Add(1)
	defer s.t.end(layerADIRead, s.t.begin())
	return s.inner.CountUserRole(user, pattern, role, max)
}

func (s *tracedStore) CountUserPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission, max int) (int, error) {
	s.c[adiReads].Add(1)
	defer s.t.end(layerADIRead, s.t.begin())
	return s.inner.CountUserPrivilege(user, pattern, p, max)
}

func (s *tracedStore) ContextActive(pattern bctx.Name) (bool, error) {
	s.c[adiReads].Add(1)
	defer s.t.end(layerADIRead, s.t.begin())
	return s.inner.ContextActive(pattern)
}

func (s *tracedStore) PurgeContext(pattern bctx.Name) (int, error) {
	s.c[adiPurges].Add(1)
	defer s.t.end(layerADIPurge, s.t.begin())
	return s.inner.PurgeContext(pattern)
}

func (s *tracedStore) Len() int { return s.inner.Len() }

func (s *tracedStore) UserRecords(user rbac.UserID, pattern bctx.Name) []adi.Record {
	return s.browser.UserRecords(user, pattern)
}
func (s *tracedStore) Instances() []bctx.Name { return s.browser.Instances() }
func (s *tracedStore) UserIDs() []rbac.UserID { return s.browser.UserIDs() }

// tracedHandler interposes on an http.Handler (the gateway or a shard's
// server). Only the decision and activation paths are spans; probes and
// scrapes pass through.
type tracedHandler struct {
	probe
	inner                http.Handler
	decision, activation layer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case server.DecisionPath:
		defer h.t.end(h.decision, h.t.begin())
	case server.ActivationPath:
		defer h.t.end(h.activation, h.t.begin())
	}
	h.inner.ServeHTTP(w, r)
}

// tracedTransport interposes on an http.RoundTripper: the client's way
// to the front door, or the gateway's way to its shards (count true).
// Bytes are taken from the Content-Length of both directions, which the
// decision and activation exchanges always carry.
type tracedTransport struct {
	probe
	inner                http.RoundTripper
	decision, activation layer
	count                bool
}

func (rt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	l := numLayers
	switch r.URL.Path {
	case server.DecisionPath:
		l = rt.decision
	case server.ActivationPath:
		l = rt.activation
		if rt.count {
			rt.c[hopActivations].Add(1)
		}
	}
	if l == numLayers {
		return rt.inner.RoundTrip(r)
	}
	from := rt.t.begin()
	resp, err := rt.inner.RoundTrip(r)
	rt.t.end(l, from)
	if rt.count && err == nil {
		rt.c[hopCalls].Add(1)
		rt.c[hopBytes].Add(max(r.ContentLength, 0) + max(resp.ContentLength, 0))
	}
	return resp, err
}

// countingDialer counts connections the gateway opens to its shards.
func countingDialer(c *counters) func(ctx context.Context, network, addr string) (net.Conn, error) {
	d := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		c[hopDials].Add(1)
		return d.DialContext(ctx, network, addr)
	}
}

// modelFS is the benchmark's fsx.FS: every call goes to the real
// filesystem except Sync, which is MODELLED as a blocking sleep of
// flush and counted. A real fsync on a shared sandbox measures the
// device and its other tenants (README: several-fold swings between
// same-code runs); the model makes the number the program's, and is
// identical on both sides of any comparison. Writes are real write(2)
// calls to real files.
type modelFS struct {
	fsx.FS
	probe
	flush time.Duration
}

func newModelFS(p probe, flush time.Duration) *modelFS {
	return &modelFS{FS: fsx.OS, probe: p, flush: flush}
}

func (m *modelFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	f, err := m.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	mf := &modelFile{File: f, fs: m}
	base := filepath.Base(name)
	switch {
	case base == "wal.log":
		mf.write, mf.sync = layerWALWrite, layerWALSync
		mf.writes, mf.bytes, mf.syncs = &m.c[walWrites], &m.c[walBytes], &m.c[walSyncs]
	case strings.HasPrefix(base, "trail-"):
		mf.write, mf.sync = layerTrailWrite, layerTrailSync
		mf.writes, mf.bytes, mf.syncs = &m.c[trailWrites], &m.c[trailBytes], &m.c[trailSyncs]
	}
	return mf, nil
}

type modelFile struct {
	fsx.File
	fs                   *modelFS
	write, sync          layer
	writes, bytes, syncs *atomic.Int64 // nil for files that are neither WAL nor trail
}

func (f *modelFile) Write(p []byte) (int, error) {
	if f.writes == nil {
		return f.File.Write(p)
	}
	from := f.fs.t.begin()
	n, err := f.File.Write(p)
	f.fs.t.end(f.write, from)
	f.writes.Add(1)
	f.bytes.Add(int64(n))
	return n, err
}

// Sync blocks for the modelled flush time. time.Sleep cannot be used:
// measured on this sandbox, time.Sleep(200us) returns after 1.16 ms,
// nanosleep(2) of 200 us after 0.28 ms — and nanosleep blocks the
// thread the way fsync(2) does.
func (f *modelFile) Sync() error {
	var from spanStart
	if f.syncs != nil {
		from = f.fs.t.begin()
	}
	ts := syscall.NsecToTimespec(int64(f.fs.flush))
	for {
		var rem syscall.Timespec
		err := syscall.Nanosleep(&ts, &rem)
		if err != syscall.EINTR {
			break
		}
		ts = rem
	}
	if f.syncs != nil {
		f.fs.t.end(f.sync, from)
		f.syncs.Add(1)
	}
	return nil
}
