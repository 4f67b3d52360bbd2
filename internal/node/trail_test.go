package node

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"msod/internal/fault"
	"msod/internal/fsx"
	"msod/internal/server"
)

// serveDecision serves one decision to h in process: user acts in role
// in Period=period, as decide does over a client.
func serveDecision(t *testing.T, h http.Handler, user, role, period string) (status int, allowed bool) {
	t.Helper()
	req := server.DecisionRequest{User: user, Roles: []string{role},
		Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=" + period}
	if role == "Auditor" {
		req.Operation, req.Target = "Audit", "ledger"
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, server.DecisionPath, bytes.NewReader(body)))
	var resp server.DecisionResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decision answer %s: %v", w.Body, err)
		}
	}
	return w.Code, resp.Allowed
}

// trailShardConfig is msodd -recover trail without -adi: a memory
// retained ADI that start-up rebuilds from the trail, written through
// fs.
func trailShardConfig(t *testing.T, fs fsx.FS) Config {
	dir := t.TempDir()
	return Config{
		Policy:       writeFile(t, dir, "policy.xml", dPolicyXML),
		Recover:      "trail",
		Trail:        filepath.Join(dir, "trail"),
		TrailKeyFile: writeFile(t, dir, "key", "trail-key"),
		TrailSegment: 3,
		FS:           fs,
	}
}

// TestTrailShardKeepsGrantAcrossPowerLoss: a shard that recovers from
// its trail grants alice Teller in Period=2006, and the power fails.
// The shard that comes back replays the trail, so it must deny alice
// Auditor in the same period, as one PDP that never stopped does.
func TestTrailShardKeepsGrantAcrossPowerLoss(t *testing.T) {
	ffs := fault.NewFS(fsx.OS, 19)
	cfg := trailShardConfig(t, ffs)
	sh, err := NewShard(cfg, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if code, ok := serveDecision(t, sh, "alice", "Teller", "2006"); code != http.StatusOK || !ok {
		t.Fatalf("alice's Teller grant: %d, allowed %v", code, ok)
	}
	ffs.CrashNow()
	sh.Close() // fails over the crashed filesystem; the disk is what survived

	cfg.FS = nil
	back, err := NewShard(cfg, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if code, ok := serveDecision(t, back, "alice", "Auditor", "2006"); code != http.StatusOK || ok {
		t.Fatalf("after the power loss alice's Auditor request: %d, allowed %v; want denied: the acknowledged grant was lost", code, ok)
	}
}

// trailSchedule is a short run of grants and denials over two periods,
// long enough to seal segments of three entries.
var trailSchedule = []struct{ user, role, period string }{
	{"alice", "Teller", "2006"}, {"bob", "Auditor", "2006"}, {"alice", "Auditor", "2006"},
	{"carol", "Teller", "2007"}, {"bob", "Teller", "2006"}, {"dave", "Auditor", "2007"},
	{"carol", "Auditor", "2007"}, {"erin", "Teller", "2006"},
}

// conflicting is the role whose request the policy's MMER denies to a
// holder of role in the same period.
func conflicting(role string) string {
	if role == "Teller" {
		return "Auditor"
	}
	return "Teller"
}

// TestTrailShardCrashAtEveryOperation: the power fails at each
// mutating filesystem operation of trailSchedule in turn. Every grant
// the shard acknowledged before the crash is recovered from the trail:
// the shard that comes back denies each such user the conflicting role
// in the grant's period.
func TestTrailShardCrashAtEveryOperation(t *testing.T) {
	run := func(ffs *fault.FS) (Config, []int) {
		cfg := trailShardConfig(t, ffs)
		sh, err := NewShard(cfg, quiet)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		var acked []int
		for i, d := range trailSchedule {
			code, allowed := serveDecision(t, sh, d.user, d.role, d.period)
			if code != http.StatusOK {
				break
			}
			if allowed {
				acked = append(acked, i)
			}
		}
		return cfg, acked
	}
	clean := fault.NewFS(fsx.OS, 1)
	if _, acked := run(clean); len(acked) != 5 {
		t.Fatalf("the schedule grants %v, want 5 grants", acked)
	}
	ops := clean.Ops()
	for crashAt := 1; crashAt <= ops; crashAt++ {
		for seed := int64(1); seed <= 3; seed++ {
			ffs := fault.NewFS(fsx.OS, seed)
			ffs.InjectAt(crashAt, fault.Crash)
			cfg, acked := run(ffs)
			if !ffs.Crashed() {
				t.Fatalf("crash at op %d of %d did not fire", crashAt, ops)
			}
			cfg.FS = nil
			back, err := NewShard(cfg, quiet)
			if err != nil {
				t.Fatalf("crash at op %d, seed %d: restart: %v", crashAt, seed, err)
			}
			for _, i := range acked {
				d := trailSchedule[i]
				if code, allowed := serveDecision(t, back, d.user, conflicting(d.role), d.period); code != http.StatusOK || allowed {
					t.Errorf("crash at op %d, seed %d: after %s's acknowledged %s grant in %s, %s is answered %d, allowed %v; want denied",
						crashAt, seed, d.user, d.role, d.period, conflicting(d.role), code, allowed)
				}
			}
			back.Close()
		}
	}
}

// TestTrailShardFailedSyncAnswers503: a grant whose trail entry fails
// to sync is answered 503 and latches read-only mode, as a grant whose
// WAL sync fails does on a shard with -adi.
func TestTrailShardFailedSyncAnswers503(t *testing.T) {
	ffs := fault.NewFS(fsx.OS, 5)
	sh, err := NewShard(trailShardConfig(t, ffs), quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if code, ok := serveDecision(t, sh, "alice", "Teller", "2006"); code != http.StatusOK || !ok {
		t.Fatalf("healthy grant: %d, allowed %v", code, ok)
	}
	// bob's grant: op+1 is its trail write, op+2 the sync.
	ffs.InjectAt(ffs.Ops()+2, fault.SyncFail)
	if code, _ := serveDecision(t, sh, "bob", "Teller", "2006"); code != http.StatusServiceUnavailable {
		t.Fatalf("grant whose trail sync failed: %d, want 503", code)
	}
	if code, _ := serveDecision(t, sh, "carol", "Auditor", "2007"); code != http.StatusServiceUnavailable {
		t.Fatalf("the next decision: %d, want 503 from the read-only latch", code)
	}
}

// TestTrailShardRestartsOverALongEntry: one denied decision whose
// target is 300,000 '<' characters becomes a trail line of about
// 1.8 MB once each '<' is escaped. A shard built on the same
// directories must still open the trail and serve.
func TestTrailShardRestartsOverALongEntry(t *testing.T) {
	cfg := trailShardConfig(t, nil)
	sh, err := NewShard(cfg, quiet)
	if err != nil {
		t.Fatal(err)
	}
	// A 300 KB body: the PEP sends each '<' as one byte.
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(server.DecisionRequest{User: "mallory", Roles: []string{"Teller"},
		Operation: "HandleCash", Target: strings.Repeat("<", 300_000), Context: "Branch=York, Period=2006"}); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	sh.ServeHTTP(w, httptest.NewRequest(http.MethodPost, server.DecisionPath, &body))
	var resp server.DecisionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil || resp.Allowed {
		t.Fatalf("the long target: %d, allowed %v, %v; want a denial", w.Code, resp.Allowed, err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := NewShard(cfg, quiet)
	if err != nil {
		t.Fatalf("restart over a trail holding the long entry: %v", err)
	}
	defer back.Close()
	if code, ok := serveDecision(t, back, "alice", "Teller", "2006"); code != http.StatusOK || !ok {
		t.Fatalf("after the restart alice's Teller request: %d, allowed %v", code, ok)
	}
}
