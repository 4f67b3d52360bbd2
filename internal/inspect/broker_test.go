package inspect

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func ev(user, effect, ctx string) DecisionEvent {
	return DecisionEvent{
		User: user, Effect: effect, Context: ctx,
		Operation: "op", Target: "t", Time: time.Unix(1, 0),
	}
}

func TestBrokerPublishAssignsSequence(t *testing.T) {
	b := NewBroker(8)
	for i := 1; i <= 3; i++ {
		if got := b.Publish(ev("u", OutcomeGrant, "P=1")); got != uint64(i) {
			t.Fatalf("Publish #%d assigned seq %d", i, got)
		}
	}
	if got := lastSeq(b); got != 3 {
		t.Errorf("the last event's Seq = %d, want 3", got)
	}
}

// lastSeq is the sequence number of the last event b published, as the
// newest retained event carries it; 0 before the first.
func lastSeq(b *Broker) uint64 {
	ev, _ := b.LastMatch(func(DecisionEvent) bool { return true })
	return ev.Seq
}

func TestBrokerRingOverwritesOldest(t *testing.T) {
	b := NewBroker(4)
	for i := 0; i < 10; i++ {
		b.Publish(ev(fmt.Sprintf("u%d", i), OutcomeGrant, "P=1"))
	}
	sub := b.Subscribe(Filter{}, 100)
	defer b.Unsubscribe(sub)
	recent := drain(t, sub)
	if len(recent) != 4 {
		t.Fatalf("Subscribe replayed %d events, want capacity 4", len(recent))
	}
	// Oldest-first, only the newest four survive.
	for i, user := range recent {
		if want := fmt.Sprintf("u%d", 6+i); user != want {
			t.Errorf("replayed[%d] = %q, want %q", i, user, want)
		}
	}
}

func TestBrokerSubscribeReceivesLive(t *testing.T) {
	b := NewBroker(8)
	sub := b.Subscribe(Filter{}, 0)
	defer b.Unsubscribe(sub)
	b.Publish(ev("alice", OutcomeDeny, "P=1"))
	select {
	case got := <-sub.Events():
		if got.User != "alice" || got.Effect != OutcomeDeny || got.Seq != 1 {
			t.Fatalf("received %+v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}
}

func TestBrokerReplayThenLive(t *testing.T) {
	b := NewBroker(16)
	b.Publish(ev("a", OutcomeGrant, "P=1"))
	b.Publish(ev("b", OutcomeGrant, "P=1"))
	b.Publish(ev("c", OutcomeGrant, "P=1"))
	sub := b.Subscribe(Filter{}, 2)
	defer b.Unsubscribe(sub)
	b.Publish(ev("d", OutcomeGrant, "P=1"))
	want := []string{"b", "c", "d"} // newest 2 replayed oldest-first, then live
	for i, u := range want {
		select {
		case got := <-sub.Events():
			if got.User != u {
				t.Fatalf("event %d: user %q, want %q", i, got.User, u)
			}
		case <-time.After(time.Second):
			t.Fatalf("event %d (%q) never arrived", i, u)
		}
	}
}

func TestBrokerFilters(t *testing.T) {
	mk := func(user, ctxPat, outcome string) Filter {
		t.Helper()
		f, err := NewFilter(user, ctxPat, outcome)
		if err != nil {
			t.Fatalf("NewFilter(%q,%q,%q): %v", user, ctxPat, outcome, err)
		}
		return f
	}
	grant := ev("alice", OutcomeGrant, "Branch=York, Period=2006")
	deny := ev("bob", OutcomeDeny, "Branch=Leeds, Period=2006")
	cases := []struct {
		name  string
		f     Filter
		event DecisionEvent
		want  bool
	}{
		{"empty matches all", mk("", "", ""), grant, true},
		{"user match", mk("alice", "", ""), grant, true},
		{"user mismatch", mk("alice", "", ""), deny, false},
		{"outcome match", mk("", "", "deny"), deny, true},
		{"outcome mismatch", mk("", "", "deny"), grant, false},
		{"context wildcard", mk("", "Branch=*", ""), grant, true},
		{"context exact mismatch", mk("", "Branch=Leeds", ""), grant, false},
	}
	for _, c := range cases {
		if got := c.f.Match(c.event); got != c.want {
			t.Errorf("%s: Match = %v, want %v", c.name, got, c.want)
		}
	}
	if _, err := NewFilter("", "", "maybe"); err == nil {
		t.Error("NewFilter accepted outcome \"maybe\"")
	}
	if _, err := NewFilter("", "Branch", ""); err == nil {
		t.Error("NewFilter accepted malformed context pattern")
	}
}

func TestBrokerSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBroker(8)
	sub := b.Subscribe(Filter{}, 0)
	defer b.Unsubscribe(sub)
	// Never drain; far more events than the subscriber buffer holds.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			b.Publish(ev("u", OutcomeGrant, "P=1"))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	if sub.Dropped() == 0 {
		t.Error("slow subscriber reported zero drops after 500 undrained events")
	}
}

// drain reads queued events until the channel would block, returning
// the users in arrival order.
func drain(t *testing.T, sub *Subscriber) []string {
	t.Helper()
	var users []string
	for {
		select {
		case e, ok := <-sub.Events():
			if !ok {
				return users
			}
			users = append(users, e.User)
		default:
			return users
		}
	}
}

// TestBrokerReplayBoundary pins the replay-window arithmetic at its
// edges: replay == everything retained, replay == capacity after the
// ring has rotated, and replay beyond capacity clamping — the
// off-by-one class of bug where a subscriber gets one event too few
// (silent loss) or a stale slot from the rotated-out past.
func TestBrokerReplayBoundary(t *testing.T) {
	// Ring not yet full: replay == size returns every event, in order.
	b := NewBroker(8)
	for _, u := range []string{"a", "b", "c"} {
		b.Publish(ev(u, OutcomeGrant, "P=1"))
	}
	sub := b.Subscribe(Filter{}, 3)
	if got := drain(t, sub); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("replay==size: got %v, want [a b c]", got)
	}
	b.Unsubscribe(sub)

	// Ring exactly full: replay == capacity returns all capacity events.
	b2 := NewBroker(4)
	for i := 0; i < 4; i++ {
		b2.Publish(ev(fmt.Sprintf("u%d", i), OutcomeGrant, "P=1"))
	}
	sub = b2.Subscribe(Filter{}, 4)
	if got := drain(t, sub); len(got) != 4 || got[0] != "u0" || got[3] != "u3" {
		t.Fatalf("replay==capacity(full): got %v, want [u0 u1 u2 u3]", got)
	}
	b2.Unsubscribe(sub)

	// Rotated ring: only the surviving window replays — never an
	// overwritten slot, never fewer than retained.
	for i := 4; i < 7; i++ { // seq 5..7 overwrite u0..u2
		b2.Publish(ev(fmt.Sprintf("u%d", i), OutcomeGrant, "P=1"))
	}
	sub = b2.Subscribe(Filter{}, 100) // clamped to capacity
	if got := drain(t, sub); len(got) != 4 || got[0] != "u3" || got[3] != "u6" {
		t.Fatalf("replay>capacity(rotated): got %v, want [u3 u4 u5 u6]", got)
	}
	b2.Unsubscribe(sub)

	// replay 0 and negative: nothing queued.
	for _, n := range []int{0, -5} {
		sub = b2.Subscribe(Filter{}, n)
		if got := drain(t, sub); len(got) != 0 {
			t.Fatalf("replay=%d queued %v, want nothing", n, got)
		}
		b2.Unsubscribe(sub)
	}
}

// TestBrokerDroppedAccounting pins the exact drop count: a subscriber
// with an undrained buffer loses precisely the overflow — no
// double-counting, no uncounted loss — and keeps receiving once it
// drains again.
func TestBrokerDroppedAccounting(t *testing.T) {
	b := NewBroker(512)
	sub := b.Subscribe(Filter{}, 0) // buffer is 0+64
	defer b.Unsubscribe(sub)
	const total = 100
	for i := 0; i < total; i++ {
		b.Publish(ev(fmt.Sprintf("u%d", i), OutcomeGrant, "P=1"))
	}
	if got := sub.Dropped(); got != total-64 {
		t.Fatalf("Dropped() = %d, want exactly %d (buffer 64 of %d events)", got, total-64, total)
	}
	// The buffered prefix is intact and in order: drops happen at the
	// tail (newest events), never by corrupting what was queued.
	got := drain(t, sub)
	if len(got) != 64 || got[0] != "u0" || got[63] != "u63" {
		t.Fatalf("buffered prefix = %d events [%s..%s], want 64 [u0..u63]",
			len(got), got[0], got[len(got)-1])
	}
	// Drained: delivery resumes, and the drop counter stays put.
	b.Publish(ev("fresh", OutcomeGrant, "P=1"))
	select {
	case e := <-sub.Events():
		if e.User != "fresh" {
			t.Fatalf("post-drain event = %q, want fresh", e.User)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery after draining a slow subscriber")
	}
	if got := sub.Dropped(); got != total-64 {
		t.Errorf("Dropped() moved to %d after recovery, want still %d", got, total-64)
	}
}

// TestBrokerSubscribeReplaysNewestMatches: Subscribe(f, n) replays the
// newest n retained events matching f, oldest first, under a filter
// that skips ring slots: alice's events are every third one published.
func TestBrokerSubscribeReplaysNewestMatches(t *testing.T) {
	b := NewBroker(16)
	var alice []uint64 // the sequence numbers of alice's events
	for i := 0; i < 12; i++ {
		user := "other"
		if i%3 == 0 {
			user = "alice"
		}
		if seq := b.Publish(ev(user, OutcomeGrant, "P=1")); user == "alice" {
			alice = append(alice, seq)
		}
	}
	f, err := NewFilter("alice", "", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 100} {
		want := alice[max(0, len(alice)-n):]
		sub := b.Subscribe(f, n)
		var got []uint64
	queued:
		for {
			select {
			case e := <-sub.Events():
				got = append(got, e.Seq)
			default:
				break queued
			}
		}
		b.Unsubscribe(sub)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("n=%d: replayed sequence numbers %v, want %v", n, got, want)
		}
	}
}

// TestBrokerSubscribeFromResume: resuming after a known sequence queues
// exactly the retained span after it, gap-free and in order, then goes
// live.
func TestBrokerSubscribeFromResume(t *testing.T) {
	b := NewBroker(16)
	for i := 1; i <= 10; i++ {
		b.Publish(ev(fmt.Sprintf("u%d", i), OutcomeGrant, "P=1"))
	}
	sub, err := b.SubscribeFrom(Filter{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, sub)
	want := []string{"u6", "u7", "u8", "u9", "u10"}
	if len(got) != len(want) {
		t.Fatalf("resumed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed %v, want %v", got, want)
		}
	}
	// Live after the catch-up.
	b.Publish(ev("u11", OutcomeGrant, "P=1"))
	select {
	case e := <-sub.Events():
		if e.User != "u11" || e.Seq != 11 {
			t.Fatalf("live event after resume = %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("no live delivery after resume")
	}
	b.Unsubscribe(sub)

	// Resuming exactly at the head queues nothing.
	sub, err = b.SubscribeFrom(Filter{}, lastSeq(b))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, sub); len(got) != 0 {
		t.Fatalf("resume at head queued %v", got)
	}
	b.Unsubscribe(sub)
}

// TestBrokerSubscribeFromGap: every way a resume point can be
// unservable must fail with ErrGap — never a silently shortened replay.
func TestBrokerSubscribeFromGap(t *testing.T) {
	b := NewBroker(4)
	for i := 1; i <= 10; i++ { // seq 1..10; only 7..10 retained
		b.Publish(ev(fmt.Sprintf("u%d", i), OutcomeGrant, "P=1"))
	}
	// Rotated past: seq 2 needs 3..10 but only 7..10 survive.
	if _, err := b.SubscribeFrom(Filter{}, 2); !errors.Is(err, ErrGap) {
		t.Errorf("rotated-out resume: err = %v, want ErrGap", err)
	}
	// Boundary: the oldest retained event is seq 7, so afterSeq 6 is the
	// oldest servable resume — and 5 is one too old.
	if _, err := b.SubscribeFrom(Filter{}, 6); err != nil {
		t.Errorf("oldest servable resume refused: %v", err)
	}
	if _, err := b.SubscribeFrom(Filter{}, 5); !errors.Is(err, ErrGap) {
		t.Errorf("one-past-oldest resume: err = %v, want ErrGap", err)
	}
	// Ahead of the broker: a seq from a previous incarnation.
	if _, err := b.SubscribeFrom(Filter{}, 99); !errors.Is(err, ErrGap) {
		t.Errorf("future resume: err = %v, want ErrGap", err)
	}
	// afterSeq 0 ("everything") gaps once the ring has rotated at all…
	if _, err := b.SubscribeFrom(Filter{}, 0); !errors.Is(err, ErrGap) {
		t.Errorf("from-zero resume on rotated ring: err = %v, want ErrGap", err)
	}
	// …but works on a broker that still retains its full history.
	b2 := NewBroker(8)
	b2.Publish(ev("a", OutcomeGrant, "P=1"))
	sub, err := b2.SubscribeFrom(Filter{}, 0)
	if err != nil {
		t.Fatalf("from-zero resume with full history: %v", err)
	}
	if got := drain(t, sub); len(got) != 1 || got[0] != "a" {
		t.Errorf("from-zero replay = %v, want [a]", got)
	}
}

// TestBrokerSubscribeFromFiltered: the filter prunes the catch-up span
// without disturbing its order, and a closed broker hands back a closed
// channel rather than an error.
func TestBrokerSubscribeFromFiltered(t *testing.T) {
	b := NewBroker(16)
	for i := 1; i <= 8; i++ {
		user := "other"
		if i%2 == 0 {
			user = "alice"
		}
		b.Publish(ev(user, OutcomeGrant, "P=1"))
	}
	f, err := NewFilter("alice", "", "")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeFrom(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, sub)
	if len(got) != 3 { // seqs 4, 6, 8
		t.Fatalf("filtered resume delivered %v, want 3 alice events", got)
	}
	b.Unsubscribe(sub)

	b.Close()
	sub, err = b.SubscribeFrom(Filter{}, 0)
	if err != nil {
		t.Fatalf("SubscribeFrom on closed broker: %v", err)
	}
	if _, ok := <-sub.Events(); ok {
		t.Error("closed broker delivered an event")
	}
}

func TestBrokerLastMatch(t *testing.T) {
	b := NewBroker(8)
	first := ev("alice", OutcomeGrant, "P=1")
	first.TraceID = "t-old"
	second := ev("alice", OutcomeDeny, "P=1")
	second.TraceID = "t-new"
	b.Publish(first)
	b.Publish(second)
	b.Publish(ev("bob", OutcomeGrant, "P=1"))
	got, ok := b.LastMatch(func(e DecisionEvent) bool { return e.User == "alice" })
	if !ok || got.TraceID != "t-new" {
		t.Fatalf("LastMatch = %+v ok=%v, want newest alice event t-new", got, ok)
	}
	if _, ok := b.LastMatch(func(e DecisionEvent) bool { return e.User == "nobody" }); ok {
		t.Error("LastMatch found an event for an unseen user")
	}
}
