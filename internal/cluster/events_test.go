package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msod/internal/inspect"
	"msod/internal/server"
)

// TestGatewayFollowsPastALongEvent: one shard's stream carries an event
// line of megabytes; the gateway's fan-in still delivers the event that
// shard publishes after it.
func TestGatewayFollowsPastALongEvent(t *testing.T) {
	gw, _, c := newGateway(t, Config{}, nil, urls(newShards(t, 3, handoff))...)
	user := userOn(t, gw, "a", "teller", 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.PostRaw(ctx, server.DecisionPath, "", longTargetDenial(user)); err != nil {
		t.Fatalf("the long denial: %v", err)
	}
	ok, err := c.Decision(server.DecisionRequest{User: user, Roles: []string{"Teller"},
		Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"})
	if err != nil || !ok.Allowed {
		t.Fatalf("the ordinary decision = %+v, %v; want a grant", ok, err)
	}

	errDone := errors.New("done")
	var seen int
	err = c.FollowEvents(ctx, server.FollowEventsOptions{Replay: 10}, func(ev inspect.DecisionEvent) error {
		seen++
		if ev.User == user && ev.Effect == inspect.OutcomeGrant {
			if ev.Shard != "a" {
				t.Errorf("the grant's event names shard %q, want a", ev.Shard)
			}
			return errDone
		}
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("the gateway's stream = %v after %d events, want the ordinary decision's event", err, seen)
	}
}

// TestGatewayEventStreamRefusalIsNoShardFailure: a shard built without
// an event broker answers its /v1/events with 404. That is a verdict,
// not a failure: a subscriber on the gateway's stream, which follows
// that shard, does not take it Down.
func TestGatewayEventStreamRefusalIsNoShardFailure(t *testing.T) {
	sh := newShard(t, "a", shardSpec{noEvents: true})
	gw, gts, _ := newGateway(t, Config{}, nil, sh.ts.URL)
	gw.eventsBackoff = time.Millisecond
	gw.Checker().CheckNow()
	if !gw.Checker().Up("a") {
		t.Fatalf("shard a starts %+v, want Up", gw.Checker().Statuses()["a"])
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- server.NewClient(gts.URL, nil).FollowEvents(ctx, server.FollowEventsOptions{},
			func(inspect.DecisionEvent) error { return nil })
	}()
	// A third follow arrives only after the first two were refused and
	// the gateway paused after each: it has had two refusals to judge,
	// as many as take a shard Down at the default FailAfter.
	for deadline := time.Now().Add(10 * time.Second); sh.arrivals(server.EventsPath) < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the gateway followed shard a's events %d times in 10 s, want 3", sh.arrivals(server.EventsPath))
		}
	}
	up, st := gw.Checker().Up("a"), gw.Checker().Statuses()["a"]
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("the gateway's stream ended with %v, want it open until cancelled", err)
	}
	if !up {
		t.Fatalf("shard a is %+v after three refused follows of its events, want Up", st)
	}
}

// TestGatewayEventStreamRefusesAResume: the gateway's merged stream
// keeps no sequence of its own, so a follower reconnecting with
// Last-Event-ID cannot be resumed there. The gateway answers 410 — which
// FollowEvents reports as ErrEventGap and msodctl tail explains — rather
// than rejoining the follower live, silently past the events published
// while it was away.
func TestGatewayEventStreamRefusesAResume(t *testing.T) {
	gw, _, c := newGateway(t, Config{}, nil, urls(newShards(t, 1, handoff))...)
	for i := range 3 {
		dec, err := c.Decision(server.DecisionRequest{User: fmt.Sprint("teller", i), Roles: []string{"Teller"},
			Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"})
		if err != nil || !dec.Allowed {
			t.Fatalf("decision %d = %+v, %v; want a grant", i, dec, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r := httptest.NewRequest(http.MethodGet, server.EventsPath, nil).WithContext(ctx)
	r.Header.Set(server.LastEventIDHeader, "1")
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, r)
	if w.Code != http.StatusGone {
		t.Fatalf("a resume from seq 1 answered %d with %d events in 2 s, want 410", w.Code, strings.Count(w.Body.String(), "data:"))
	}
	if !strings.Contains(w.Body.String(), "resume") {
		t.Errorf("the 410's body %q does not say the stream cannot resume", w.Body.String())
	}
}
