package pdp

import (
	"errors"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/fault"
	"msod/internal/fsx"
	"msod/internal/policy"
)

// TestRestartCycle runs a PDP with an audit trail, stops it, recovers a
// fresh PDP from the trail, and checks the recovered PDP makes the same
// history-dependent decisions — the §5.2 start-up procedure end to end.
func TestRestartCycle(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	key := []byte("trail-key")

	// First life: trail-backed PDP takes some decisions.
	w1, err := audit.NewWriter(dir, key, 4)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := New(Config{Policy: pol, Trail: w1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Request{
		bankReq("alice", "Teller", "HandleCash", "till", "York", "2006"),
		bankReq("alice", "Auditor", "Audit", "ledger", "York", "2006"), // MSoD deny
		bankReq("bob", "Auditor", "Audit", "ledger", "Leeds", "2006"),
		bankReq("carol", "Teller", "HandleCash", "till", "York", "2007"),
	} {
		if _, err := p1.Decide(r); err != nil {
			t.Fatal(err)
		}
	}
	if p1.TrailErrors() != 0 {
		t.Fatalf("trail errors: %d", p1.TrailErrors())
	}
	liveLen := p1.Store().Len()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: recover from the trail.
	store, stats, err := Recover(pol, RecoveryConfig{
		Mode:     RecoverFromTrail,
		TrailDir: dir,
		TrailKey: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != liveLen {
		t.Fatalf("recovered %d records, live had %d", stats.Records, liveLen)
	}
	p2, err := New(Config{Policy: pol, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	// History-dependent behaviour must survive the restart: alice still
	// cannot audit 2006; bob still cannot tell in 2006; carol is blocked
	// from auditing 2007.
	cases := []struct {
		req  Request
		want bool
	}{
		{bankReq("alice", "Auditor", "Audit", "ledger", "Leeds", "2006"), false},
		{bankReq("bob", "Teller", "HandleCash", "till", "York", "2006"), false},
		{bankReq("carol", "Auditor", "Audit", "ledger", "York", "2007"), false},
		{bankReq("dave", "Auditor", "Audit", "ledger", "York", "2006"), true},
	}
	for _, c := range cases {
		dec, err := p2.Decide(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Allowed != c.want {
			t.Errorf("recovered PDP: %s %s -> %v, want %v (%s)",
				c.req.User, c.req.Operation, dec.Allowed, c.want, dec.Reason())
		}
	}
}

func TestRecoverModes(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	store, stats, err := Recover(pol, RecoveryConfig{Mode: RecoverNone})
	if err != nil || store.Len() != 0 || stats.Records != 0 {
		t.Errorf("RecoverNone = %v %v %v", store.Len(), stats, err)
	}
	if _, _, err := Recover(pol, RecoveryConfig{Mode: RecoveryMode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, _, err := Recover(pol, RecoveryConfig{Mode: RecoverFromTrail}); err == nil {
		t.Error("trail mode without key accepted")
	}
}

// TestRecoverWindow exercises the §5.2 "last n trails starting from time
// t" parameters: only events inside the window are replayed.
func TestRecoverWindow(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	key := []byte("k")
	w, err := audit.NewWriter(dir, key, 1) // one event per segment
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	clockAt := base
	p, err := New(Config{Policy: pol, Trail: w, Clock: func() time.Time { return clockAt }})
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"a", "b", "c", "d"}
	for i, u := range users {
		clockAt = base.Add(time.Duration(i) * time.Hour)
		if _, err := p.Decide(bankReq(u, "Teller", "HandleCash", "till", "York", "2006")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Only the last 2 segments: users c and d.
	store, stats, err := Recover(pol, RecoveryConfig{
		Mode: RecoverFromTrail, TrailDir: dir, TrailKey: key, LastSegments: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || store.Len() != 2 {
		t.Fatalf("windowed recovery: stats=%+v len=%d", stats, store.Len())
	}
}

// TestTrailRecoversSyncsGrants: with TrailRecovers, a grant's trail
// entry is synced before Decide returns, and a grant whose entry fails
// to sync fails with adi.ErrWriteFailed and is not counted as a trail
// error. A denial's entry is not synced, and its failure is counted as
// without TrailRecovers, which keeps its counted, unsynced trail.
func TestTrailRecoversSyncsGrants(t *testing.T) {
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	for _, recovers := range []bool{false, true} {
		ffs := fault.NewFS(fsx.OS, 3)
		w, err := audit.NewWriterFS(t.TempDir(), []byte("trail-key"), 0, ffs)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{Policy: pol, Trail: w, TrailRecovers: recovers})
		if err != nil {
			t.Fatal(err)
		}
		grant := bankReq("alice", "Teller", "HandleCash", "till", "York", "2006")
		before := ffs.Ops()
		if dec, err := p.Decide(grant); err != nil || !dec.Allowed {
			t.Fatalf("recovers %v: grant = %+v, %v", recovers, dec, err)
		}
		if ops, want := ffs.Ops()-before, map[bool]int{false: 1, true: 2}[recovers]; ops != want {
			t.Fatalf("recovers %v: a grant took %d filesystem operations, want %d (write, and a sync when the trail recovers)", recovers, ops, want)
		}
		before = ffs.Ops()
		if dec, err := p.Decide(bankReq("alice", "Auditor", "Audit", "ledger", "York", "2006")); err != nil || dec.Allowed {
			t.Fatalf("recovers %v: denial = %+v, %v", recovers, dec, err)
		}
		if ops := ffs.Ops() - before; ops != 1 {
			t.Fatalf("recovers %v: a denial took %d filesystem operations, want its write alone", recovers, ops)
		}

		// The next grant's write fails.
		ffs.InjectAt(ffs.Ops()+1, fault.EIO)
		dec, err := p.Decide(bankReq("bob", "Teller", "HandleCash", "till", "Leeds", "2006"))
		if recovers {
			if !errors.Is(err, adi.ErrWriteFailed) {
				t.Fatalf("grant whose trail write failed = %+v, %v; want adi.ErrWriteFailed", dec, err)
			}
			if n := p.TrailErrors(); n != 0 {
				t.Fatalf("%d trail errors counted for a grant that failed instead", n)
			}
		} else if err != nil || !dec.Allowed || p.TrailErrors() != 1 {
			t.Fatalf("without TrailRecovers: grant = %+v, %v with %d trail errors; want granted, 1 counted", dec, err, p.TrailErrors())
		}
		w.Close()
	}
}
