package cluster

import (
	"net/http"
	"strconv"
	"sync/atomic"
)

// admitPool is the gateway-coordinated admission token pool: one bound
// on the work in flight across the WHOLE cluster, composing with (not
// duplicating) each shard's own -max-inflight. The gateway sits in
// front of every shard, so a single pool here bounds total concurrency
// wherever the ring happens to route it — a cluster scaled from two
// shards to three keeps the same externally promised capacity until
// the operator raises it, and a draining shard's unfinished work keeps
// holding tokens until it completes, which is exactly the "finish
// in-flight, accept nothing new" drain contract.
//
// The pool is deliberately a counter, not a queue: excess load is shed
// immediately with 503 + Retry-After (the same contract as a shard's
// own admission control, so server.Client retries it transparently)
// rather than buffered into a latency bomb.
type admitPool struct {
	capacity int64
	inflight atomic.Int64
	shed     atomic.Int64
}

// newAdmitPool builds a pool admitting up to capacity concurrent
// requests; capacity <= 0 disables the bound.
func newAdmitPool(capacity int) *admitPool {
	return &admitPool{capacity: int64(capacity)}
}

// acquire claims a token, reporting false (and counting the shed) when
// the pool is exhausted. On true the caller must release exactly once.
func (p *admitPool) acquire() bool {
	if p.capacity <= 0 {
		return true
	}
	if p.inflight.Add(1) > p.capacity {
		p.inflight.Add(-1)
		p.shed.Add(1)
		return false
	}
	return true
}

// release returns a token.
func (p *admitPool) release() {
	if p.capacity > 0 {
		p.inflight.Add(-1)
	}
}

// Inflight reports the tokens currently held (0 when unbounded).
func (p *admitPool) Inflight() int64 {
	if p.capacity <= 0 {
		return 0
	}
	return p.inflight.Load()
}

// Capacity reports the pool bound (0 = unbounded).
func (p *admitPool) Capacity() int64 { return p.capacity }

// Shed reports how many requests the pool refused.
func (p *admitPool) Shed() int64 { return p.shed.Load() }

// admitCluster claims a cluster-wide admission token, shedding the
// request with 503 + Retry-After (the same contract as a shard's own
// admission control, so server.Client retries transparently) when the
// pool is exhausted. On true the caller must invoke
// g.admission.release exactly once.
func (g *Gateway) admitCluster(w http.ResponseWriter) bool {
	if g.admission.acquire() {
		return true
	}
	g.metrics.unavailable.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfterCeil(g.cfg.ShedRetryAfter))))
	errorJSON(w, http.StatusServiceUnavailable,
		"cluster admission pool exhausted; shedding load, retry after the hinted delay")
	return false
}
