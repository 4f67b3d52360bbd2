package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/cluster"
	"msod/internal/core"
	"msod/internal/credential"
	"msod/internal/pdp"
	"msod/internal/rbac"
	"msod/internal/server"
)

// The ladder attributes what the wrappers cannot see from outside: the
// work inside server and pdp. Each rung replays the first requests of
// the workload's stream, single-threaded, straight into one layer's
// public entry point on fresh state, and reports time and allocations
// per call. A rung includes everything below it, so the difference
// between neighbouring rungs is the upper layer's own share. There is
// no concurrency on the ladder: lock and queue waits do not show here.

// ladderRequest is one request of the stream in every form a rung needs.
type ladderRequest struct {
	op   *op
	ctx  string
	name bctx.Name
	body []byte
	pdp  pdp.Request
}

func ladderStream(fx *fixture, n int) ([]ladderRequest, error) {
	cur := newCursor(fx.traffic, 0, 1)
	out := make([]ladderRequest, n)
	for i := range out {
		o, f, instance := cur.next()
		ctx := contextTypes[f][0] + "=" + o.place + ", " + contextTypes[f][1] + "=" + instance
		name, err := bctx.Parse(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = ladderRequest{
			op: o, ctx: ctx, name: name,
			body: appendRequest(nil, o, f, instance),
			pdp: pdp.Request{
				User: rbac.UserID(o.user), Roles: roleSlices[o.role],
				Operation: rbac.Operation(o.priv.operation), Target: rbac.Object(o.priv.target),
				Context: name,
			},
		}
	}
	return out, nil
}

// rung times calls calls of fn and returns microseconds and heap
// allocations per call.
func rung(calls int, fn func(i int) error) (us, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	started := time.Now()
	for i := 0; i < calls; i++ {
		if err := fn(i); err != nil {
			return 0, 0, fmt.Errorf("call %d: %w", i, err)
		}
	}
	elapsed := time.Since(started)
	runtime.ReadMemStats(&after)
	n := float64(calls)
	return float64(elapsed) * usPerNs / n, float64(after.Mallocs-before.Mallocs) / n, nil
}

// memoryWriter is the in-memory http.ResponseWriter of the handler rungs.
type memoryWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memoryWriter) Header() http.Header         { return w.header }
func (w *memoryWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *memoryWriter) WriteHeader(status int)      { w.status = status }

// handlerRung replays the requests into an http.Handler.
func handlerRung(h http.Handler, reqs []ladderRequest) (us, allocs float64, err error) {
	w := &memoryWriter{header: http.Header{}}
	return rung(len(reqs), func(i int) error {
		r, err := http.NewRequest(http.MethodPost, server.DecisionPath, bytes.NewReader(reqs[i].body))
		if err != nil {
			return err
		}
		w.body.Reset()
		w.status = http.StatusOK
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			return fmt.Errorf("status %d: %s", w.status, bytes.TrimSpace(w.body.Bytes()))
		}
		return nil
	})
}

// cannedShard answers every decision a gateway forwards with a grant
// for the subject the request names, without any shard behind it.
type cannedShard struct{}

func (cannedShard) RoundTrip(r *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	user := []byte(nil)
	for _, key := range []string{`"user":"`, `"holder":"`} {
		if at := bytes.Index(body, []byte(key)); at >= 0 {
			rest := body[at+len(key):]
			user = rest[:bytes.IndexByte(rest, '"')]
			break
		}
	}
	answer := append(append([]byte(`{"allowed":true,"phase":"granted","user":"`), user...), `"}`...)
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(answer)),
		ContentLength: int64(len(answer)),
		Request:       r,
	}, nil
}

func runLadder(sys *system, fx *fixture, o runOptions, m *metricSet) error {
	reqs, err := ladderStream(fx, o.size().ladderRequests)
	if err != nil {
		return err
	}
	n := len(reqs)

	us, _, err := rung(n, func(i int) error { _, err := bctx.Parse(reqs[i].ctx); return err })
	if err != nil {
		return err
	}
	m.set("bctx.parse_ns", us*1000)

	compiled, err := core.Compile(fx.pol.MSoD)
	if err != nil {
		return err
	}
	us, _, err = rung(n, func(i int) error {
		for p := range compiled {
			if _, err := bctx.MatchInstance(compiled[p].Context, reqs[i].name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("bctx.matchinstance_ns", us*1000/float64(len(compiled)))

	model, err := fx.pol.BuildModel()
	if err != nil {
		return err
	}
	us, _, _ = rung(n, func(i int) error {
		model.RolesPermit(reqs[i].pdp.Roles, rbac.Permission{Operation: reqs[i].pdp.Operation, Object: reqs[i].pdp.Target})
		return nil
	})
	m.set("rbac.rolespermit_ns", us*1000)

	// The engine is only asked about requests RBAC lets through.
	var permitted []core.Request
	for _, r := range reqs {
		if r.op.phase != phaseRBAC {
			permitted = append(permitted, core.Request{User: r.pdp.User, Roles: r.pdp.Roles,
				Operation: r.pdp.Operation, Target: r.pdp.Target, Context: r.name})
		}
	}
	engine, err := core.NewEngine(adi.NewStore(), compiled)
	if err != nil {
		return err
	}
	us, allocs, err := rung(len(permitted), func(i int) error {
		_, err := engine.EvaluateCtx(context.Background(), permitted[i])
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.evaluate_us", us)
	m.set("core.evaluate_allocs", allocs)

	decisionPoint, err := pdp.New(pdp.Config{Policy: fx.pol})
	if err != nil {
		return err
	}
	us, allocs, err = rung(n, func(i int) error {
		_, err := decisionPoint.DecideCtx(context.Background(), reqs[i].pdp)
		return err
	})
	if err != nil {
		return err
	}
	m.set("pdp.decide_us", us)
	m.set("pdp.decide_allocs", allocs)

	// One credential per call, as one request in credential_every
	// carries; workloads without credentials still time the CVS.
	creds := fx.creds
	if len(creds) == 0 {
		now := time.Now()
		for i := 0; i < 64; i++ {
			c, err := fx.authority.IssueRole("u"+strconv.Itoa(i), roleTeller, now.Add(-time.Hour), now.Add(time.Hour))
			if err != nil {
				return err
			}
			creds = append(creds, c)
		}
	}
	cvs := credential.NewCVS(fx.pol.TrustedRoles(), nil)
	if err := cvs.RegisterAuthority(fx.authority); err != nil {
		return err
	}
	now := time.Now()
	us, _, err = rung(max(n/10, 1), func(i int) error {
		v, err := cvs.Validate(creds[i%len(creds):i%len(creds)+1], now)
		if err == nil && v.User == "" {
			err = fmt.Errorf("credential rejected: %v", v.Rejected)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("credential.validate_us", us)

	// Handler rungs: the workload's own shard configuration, then the
	// same server with memory ADI, then a bare server.New(p) with the
	// explain ring off. The last two differ only in telemetry.
	dir := filepath.Join(sys.dir, "ladder")
	production, err := buildShard(sys.probe, fx.pol, fx.authority, sys.fs, filepath.Join(dir, "shard"), false)
	if err != nil {
		return err
	}
	prodUs, prodAllocs, err := handlerRung(production.handler, reqs)
	if err != nil {
		return fmt.Errorf("server rung: %w", err)
	}
	directUs, directAllocs := prodUs, prodAllocs
	if o.workload.Config.System == systemShard {
		durable, err := buildShard(sys.probe, fx.pol, fx.authority, sys.fs, filepath.Join(dir, "durable"), true)
		if err != nil {
			return err
		}
		directUs, directAllocs, err = handlerRung(durable.handler, reqs)
		if cerr := durable.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("durable server rung: %w", err)
		}
	}
	m.set("server.handler.direct_us", directUs)
	m.set("server.handler.direct_allocs", directAllocs)
	barePDP, err := pdp.New(pdp.Config{Policy: fx.pol})
	if err != nil {
		return err
	}
	if err := barePDP.TrustAuthority(fx.authority); err != nil {
		return err
	}
	bareUs, bareAllocs, err := handlerRung(server.New(barePDP, server.WithExplainCapacity(-1)), reqs)
	if err != nil {
		return fmt.Errorf("bare server rung: %w", err)
	}
	m.set("server.telemetry_us", prodUs-bareUs)
	m.set("server.telemetry_allocs", prodAllocs-bareAllocs)

	var topology []cluster.Shard
	for i := 0; i < gatewayShards; i++ {
		topology = append(topology, cluster.Shard{ID: fmt.Sprintf("s%d", i), BaseURL: fmt.Sprintf("http://s%d.invalid", i)})
	}
	gw, err := cluster.New(cluster.Config{Shards: topology, HTTPClient: &http.Client{Transport: cannedShard{}}})
	if err != nil {
		return err
	}
	us, allocs, err = handlerRung(gw, reqs)
	gw.Close()
	if err != nil {
		return fmt.Errorf("gateway rung: %w", err)
	}
	m.set("cluster.gateway.direct_us", us)
	m.set("cluster.gateway.direct_allocs", allocs)

	trail, err := audit.NewWriterFS(filepath.Join(dir, "trail"), trailKey, audit.DefaultSegmentSize, sys.fs)
	if err != nil {
		return err
	}
	us, allocs, err = rung(n, func(i int) error {
		r := reqs[i]
		effect := audit.EffectDeny
		if r.op.allowed {
			effect = audit.EffectGrant
		}
		_, err := trail.AppendCtx(context.Background(), audit.Event{
			Time: now, User: r.op.user, Roles: []string{r.op.role},
			Operation: r.op.priv.operation, Target: r.op.priv.target, Context: r.ctx,
			Effect: effect, MatchedPolicies: 1,
		})
		return err
	})
	if cerr := trail.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("audit rung: %w", err)
	}
	m.set("audit.append_us", us)
	m.set("audit.append_allocs", allocs)
	return nil
}
