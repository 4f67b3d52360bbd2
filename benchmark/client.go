package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"msod/internal/bctx"
	"msod/internal/pdp"
	"msod/internal/rbac"
	"msod/internal/server"
)

// verdict is what a system answered, reduced to what the oracle
// predicts and the counters need.
type verdict struct {
	allowed bool
	phase   string
	matched int // MSoD policies the decision matched
	wire    int // request + response body bytes at the front door
}

// decider submits one generated request to the system under test.
// Each client owns one; implementations keep per-client buffers.
type decider interface {
	decide(o *op, f family, instance string) (verdict, error)
}

var roleSlices = map[string][]rbac.RoleName{
	roleTeller: {roleTeller}, roleAuditor: {roleAuditor},
	roleClerk: {roleClerk}, roleManager: {roleManager},
}

// inprocDecider is an application embedding the PDP: it builds the
// business context name and calls DecideCtx directly.
type inprocDecider struct{ pdp *pdp.PDP }

func (d inprocDecider) decide(o *op, f family, instance string) (verdict, error) {
	name, err := bctx.NewName(
		bctx.Component{Type: contextTypes[f][0], Value: o.place},
		bctx.Component{Type: contextTypes[f][1], Value: instance})
	if err != nil {
		return verdict{}, err
	}
	dec, err := d.pdp.DecideCtx(context.Background(), pdp.Request{
		User:      rbac.UserID(o.user),
		Roles:     roleSlices[o.role],
		Operation: rbac.Operation(o.priv.operation),
		Target:    rbac.Object(o.priv.target),
		Context:   name,
	})
	if err != nil {
		return verdict{}, err
	}
	v := verdict{allowed: dec.Allowed, phase: string(dec.Phase)}
	if dec.MSoD != nil {
		v.matched = dec.MSoD.MatchedPolicies
	}
	return v, nil
}

// httpDecider is a remote PEP: it posts the wire form of the request to
// the front door (a shard or the gateway) and decodes the answer.
type httpDecider struct {
	client *http.Client
	url    string
	body   []byte
	resp   bytes.Buffer
}

// appendRequest renders server.DecisionRequest by hand: every string
// the generator emits is plain ASCII without quotes or backslashes
// (checked by a test against encoding/json), and the client's own
// encoding cost is overhead the benchmark should keep small.
func appendRequest(b []byte, o *op, f family, instance string) []byte {
	if o.cred != nil {
		b = append(b, `{"credentials":[`...)
		b = append(b, o.cred...)
		b = append(b, `],`...)
	} else {
		b = append(b, `{"user":"`...)
		b = append(b, o.user...)
		b = append(b, `","roles":["`...)
		b = append(b, o.role...)
		b = append(b, `"],`...)
	}
	b = append(b, `"operation":"`...)
	b = append(b, o.priv.operation...)
	b = append(b, `","target":"`...)
	b = append(b, o.priv.target...)
	b = append(b, `","context":"`...)
	b = append(b, contextTypes[f][0]...)
	b = append(b, '=')
	b = append(b, o.place...)
	b = append(b, ", "...)
	b = append(b, contextTypes[f][1]...)
	b = append(b, '=')
	b = append(b, instance...)
	return append(b, `"}`...)
}

func (d *httpDecider) decide(o *op, f family, instance string) (verdict, error) {
	d.body = appendRequest(d.body[:0], o, f, instance)
	req, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(d.body))
	if err != nil {
		return verdict{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return verdict{}, err
	}
	d.resp.Reset()
	_, err = d.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return verdict{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return verdict{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(d.resp.Bytes()))
	}
	var wire server.DecisionResponse
	if err := json.Unmarshal(d.resp.Bytes(), &wire); err != nil {
		return verdict{}, err
	}
	if wire.User != o.user {
		return verdict{}, fmt.Errorf("answer is for subject %q, asked about %q", wire.User, o.user)
	}
	return verdict{
		allowed: wire.Allowed, phase: wire.Phase, matched: wire.MatchedPolicies,
		wire: len(d.body) + d.resp.Len(),
	}, nil
}

func (sys *system) newDecider() decider {
	if sys.inproc != nil {
		return inprocDecider{sys.inproc}
	}
	return &httpDecider{client: sys.client, url: sys.frontURL + server.DecisionPath}
}

// Sample classes: bit 0 is the oracle's verdict, the rest op.class.
const sampleGrant = 1

// client is one closed-loop caller: it sends its next request only
// after the previous one was answered, checks every answer against the
// oracle, and keeps every latency.
type client struct {
	cur *cursor
	d   decider

	lat   []int32 // nanoseconds, one per request of the current slice
	class []uint8

	tally
}

// tally counts what a client saw since it was last reset.
type tally struct {
	attempted int
	grants    int
	errors    int // transport errors, non-2xx, refusals, withheld answers
	wrong     int // answered, but not what the oracle expects
	matched   int
	wire      int
	firstBad  string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.grants += o.grants
	t.errors += o.errors
	t.wrong += o.wrong
	t.matched += o.matched
	t.wire += o.wire
	if t.firstBad == "" {
		t.firstBad = o.firstBad
	}
}

func (t *tally) failed() int { return t.errors + t.wrong }

// run drives the client until the pool of requests the slice's clients
// share is used up. With traced set (one client only) each call is the
// root span of its request.
func (c *client) run(t *tracer, traced bool, pool *atomic.Int64) {
	for pool.Add(-1) >= 0 {
		start := time.Now()
		o, f, instance := c.cur.next()
		var from spanStart
		if traced {
			t.req.Add(1)
			from = t.begin()
		}
		v, err := c.d.decide(o, f, instance)
		elapsed := time.Since(start)
		if traced {
			t.end(layerClient, from)
		}
		c.lat = append(c.lat, int32(min(elapsed, 1<<31-1)))
		class := o.class << 1
		if o.allowed {
			class |= sampleGrant
		}
		c.class = append(c.class, class)
		c.attempted++
		switch {
		case err != nil:
			c.errors++
			if c.firstBad == "" {
				c.firstBad = fmt.Sprintf("%s %s in %s: %v", o.user, o.priv.operation, instance, err)
			}
		case v.allowed != o.allowed || v.phase != o.phase:
			c.wrong++
			if c.firstBad == "" {
				c.firstBad = fmt.Sprintf("%s as %s doing %s in %s: got allowed=%v phase=%s, oracle says allowed=%v phase=%s",
					o.user, o.role, o.priv.operation, instance, v.allowed, v.phase, o.allowed, o.phase)
			}
		default:
			if v.allowed {
				c.grants++
			}
			c.matched += v.matched
			c.wire += v.wire
		}
	}
}
