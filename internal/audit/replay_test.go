package audit

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/rbac"
)

func bankPolicies() []core.Policy {
	return []core.Policy{{
		Context:  bctx.MustParse("Branch=*, Period=!"),
		LastStep: &core.Step{Operation: "CommitAudit", Target: "audit"},
		MMER: []core.MMERRule{{
			Roles:       []rbac.RoleName{"Teller", "Auditor"},
			Cardinality: 2,
		}},
	}}
}

func req(user, role, op, branch, period string) core.Request {
	target := rbac.Object("till")
	if op == "CommitAudit" {
		target = "audit"
	}
	return core.Request{
		User:      rbac.UserID(user),
		Roles:     []rbac.RoleName{rbac.RoleName(role)},
		Operation: rbac.Operation(op),
		Target:    target,
		Context:   bctx.MustParse("Branch=" + branch + ", Period=" + period),
	}
}

// runAndLog drives requests through a live engine, logging each decision
// to the trail exactly as the PDP does (§5.2).
func runAndLog(t *testing.T, w *Writer, eng *core.Engine, reqs []core.Request) {
	t.Helper()
	at := time.Date(2006, 7, 1, 9, 0, 0, 0, time.UTC)
	for _, r := range reqs {
		dec, err := eng.Evaluate(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(NewEvent(r, "", nil, *dec, at)); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Minute)
	}
}

// TestReplayReconstructsLiveState runs a workload, replays the trail
// into a fresh store and checks the rebuilt retained ADI equals the live
// engine's store.
func TestReplayReconstructsLiveState(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testKey, 4)
	if err != nil {
		t.Fatal(err)
	}
	liveStore := adi.NewStore()
	eng, err := core.NewEngine(liveStore, bankPolicies())
	if err != nil {
		t.Fatal(err)
	}

	runAndLog(t, w, eng, []core.Request{
		req("alice", "Teller", "HandleCash", "York", "2006"),
		req("alice", "Auditor", "Audit", "York", "2006"), // denied
		req("bob", "Auditor", "Audit", "Leeds", "2006"),
		req("carol", "Teller", "HandleCash", "York", "2007"),
		req("dave", "Auditor", "CommitAudit", "Leeds", "2006"), // purges 2006
		req("alice", "Auditor", "Audit", "York", "2006"),       // granted post-purge
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, _ := NewReader(dir, testKey)
	events, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := adi.NewStore()
	stats, err := Replay(events, bankPolicies(), rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Diverged != 0 {
		t.Errorf("diverged = %d", stats.Diverged)
	}
	if stats.Records != liveStore.Len() {
		t.Fatalf("rebuilt %d records, live store has %d", stats.Records, liveStore.Len())
	}

	// Spot-check semantic equivalence: same answers to history queries.
	p2006 := bctx.MustParse("Branch=*, Period=2006")
	p2007 := bctx.MustParse("Branch=*, Period=2007")
	for _, c := range []struct {
		user rbac.UserID
		pat  bctx.Name
		role rbac.RoleName
	}{
		{"alice", p2006, "Teller"},
		{"alice", p2006, "Auditor"},
		{"bob", p2006, "Auditor"},
		{"carol", p2007, "Teller"},
	} {
		a, _ := liveStore.UserHasRole(c.user, c.pat, c.role)
		b, _ := rebuilt.UserHasRole(c.user, c.pat, c.role)
		if a != b {
			t.Errorf("query (%s, %s, %s): live=%v rebuilt=%v", c.user, c.pat, c.role, a, b)
		}
	}

	// The rebuilt engine must behave identically going forward: alice
	// audited 2006 after the purge, so she cannot tell in 2006 now.
	eng2, err := core.NewEngine(rebuilt, bankPolicies())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := eng2.Evaluate(req("alice", "Teller", "HandleCash", "York", "2006"))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Effect != core.Deny {
		t.Error("rebuilt engine lost alice's post-purge Auditor history")
	}
}

// TestReplaySkipsIrrelevantEvents: denials and non-MSoD decisions do not
// contribute records.
func TestReplaySkipsIrrelevantEvents(t *testing.T) {
	events := []Event{
		{Seq: 1, User: "u", Roles: []string{"Teller"}, Operation: "op", Target: "till",
			Context: "Branch=York, Period=2006", Effect: EffectDeny, MatchedPolicies: 1},
		{Seq: 2, User: "u", Roles: []string{"Teller"}, Operation: "op", Target: "till",
			Context: "Warehouse=1", Effect: EffectGrant, MatchedPolicies: 0},
	}
	store := adi.NewStore()
	stats, err := Replay(events, bankPolicies(), store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 0 || store.Len() != 0 {
		t.Errorf("stats=%+v len=%d", stats, store.Len())
	}
}

// TestReplayWithStricterPolicyDiverges: a policy change between runs can
// deny a previously granted event; the replay reports the divergence and
// applies the current (stricter) policy.
func TestReplayWithStricterPolicyDiverges(t *testing.T) {
	// Original policy: only Teller/Auditor conflict. The user acted as
	// Teller then Clerk — both granted.
	events := []Event{
		{Seq: 1, User: "u", Roles: []string{"Teller"}, Operation: "op", Target: "till",
			Context: "Branch=York, Period=2006", Effect: EffectGrant, MatchedPolicies: 1,
			Time: time.Date(2006, 7, 1, 9, 0, 0, 0, time.UTC)},
		{Seq: 2, User: "u", Roles: []string{"Clerk"}, Operation: "op", Target: "till",
			Context: "Branch=York, Period=2006", Effect: EffectGrant, MatchedPolicies: 1,
			Time: time.Date(2006, 7, 1, 9, 1, 0, 0, time.UTC)},
	}
	// Current policy adds Clerk to the conflicting set.
	stricter := []core.Policy{{
		Context: bctx.MustParse("Branch=*, Period=!"),
		MMER: []core.MMERRule{{
			Roles:       []rbac.RoleName{"Teller", "Auditor", "Clerk"},
			Cardinality: 2,
		}},
	}}
	store := adi.NewStore()
	stats, err := Replay(events, stricter, store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Diverged != 1 || stats.Replayed != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// Only the Teller record survives under the stricter policy.
	ok, _ := store.UserHasRole("u", bctx.Universal, "Clerk")
	if ok {
		t.Error("diverged grant was recorded")
	}
}

// TestReplayPreservesTimestamps: rebuilt records carry the original
// decision times, which §4.2 requires for administrative purposes.
func TestReplayPreservesTimestamps(t *testing.T) {
	when := time.Date(2006, 3, 14, 15, 9, 26, 0, time.UTC)
	events := []Event{{
		Seq: 1, User: "u", Roles: []string{"Teller"}, Operation: "op", Target: "till",
		Context: "Branch=York, Period=2006", Effect: EffectGrant, MatchedPolicies: 1,
		Time: when,
	}}
	store := adi.NewStore()
	if _, err := Replay(events, bankPolicies(), store); err != nil {
		t.Fatal(err)
	}
	recs := store.UserRecords("u", bctx.Universal)
	if len(recs) != 1 || !recs[0].Time.Equal(when) {
		t.Fatalf("recs = %v", recs)
	}
}

// TestReplayParsesEachTextOnce: the replayer's parsed contexts and
// typed roles change no request. A trail whose events cycle through
// more contexts than the replayer keeps, name more single roles than it
// types, and carry multi-role sets, rebuilds the store a replay without
// them builds: each event's request converted from its own strings.
func TestReplayParsesEachTextOnce(t *testing.T) {
	policies := []core.Policy{{
		Context:  bctx.MustParse("Branch=*, Period=!"),
		LastStep: &core.Step{Operation: "CommitAudit", Target: "audit"},
		MMER:     []core.MMERRule{{Roles: []rbac.RoleName{"Teller", "Auditor"}, Cardinality: 2}},
		MMEP: []core.MMEPRule{{Privileges: []rbac.Permission{
			{Operation: "HandleCash", Object: "till"}, {Operation: "Audit", Object: "till"},
		}, Cardinality: 2}},
	}}
	at := time.Date(2006, 7, 1, 9, 0, 0, 0, time.UTC)
	var events []Event
	for i := range 3 * replayTexts {
		roles := []string{fmt.Sprintf("Role%d", i)} // more single roles than the replayer types
		switch i % 4 {
		case 1:
			roles = []string{"Teller"}
		case 2:
			roles = []string{"Teller", fmt.Sprintf("Role%d", i%7)}
		}
		op, target := "HandleCash", "till"
		if i%97 == 96 {
			op, target = "CommitAudit", "audit"
		}
		events = append(events, Event{
			Seq: uint64(i + 1), Time: at.Add(time.Duration(i) * time.Minute),
			User: fmt.Sprintf("u%d", i%13), Roles: roles, Operation: op, Target: target,
			// more live contexts than the replayer keeps parsed
			Context: fmt.Sprintf("Branch=b%d, Period=p%d", i%3, i%(replayTexts+replayTexts/2)),
			Effect:  EffectGrant, MatchedPolicies: 1,
		})
	}
	replayed := adi.NewStore()
	stats, err := Replay(events, policies, replayed)
	if err != nil {
		t.Fatal(err)
	}

	reference := adi.NewStore()
	var now time.Time
	eng, err := core.NewEngine(reference, policies, core.WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		roles := make([]rbac.RoleName, len(ev.Roles))
		for i, r := range ev.Roles {
			roles[i] = rbac.RoleName(r)
		}
		now = ev.Time
		if _, err := eng.Evaluate(core.Request{User: rbac.UserID(ev.User), Roles: roles, Operation: rbac.Operation(ev.Operation),
			Target: rbac.Object(ev.Target), Context: bctx.MustParse(ev.Context)}); err != nil {
			t.Fatal(err)
		}
	}
	if stats.Records == 0 || stats.Records != reference.Len() {
		t.Fatalf("replayed %d records, the reference %d", stats.Records, reference.Len())
	}
	got, want := replayed.All(), reference.All()
	for i := range want {
		g, w := got[i], want[i]
		if g.User != w.User || !slices.Equal(g.Roles, w.Roles) || g.Operation != w.Operation || g.Target != w.Target ||
			g.Context.String() != w.Context.String() || !g.Time.Equal(w.Time) {
			t.Fatalf("record %d: replayed %+v, the reference %+v", i, g, w)
		}
	}

	if _, err := Replay([]Event{{Seq: 1, Context: "Branch", Effect: EffectGrant, MatchedPolicies: 1}}, policies, adi.NewStore()); err == nil {
		t.Error("an event whose context does not parse replayed")
	}
}
