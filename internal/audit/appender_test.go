package audit

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fuzzTime builds the time a fuzz input names: the zero time, a UTC,
// fixed-zone or local time at sec/nsec, or time.Now() — local, with a
// monotonic reading, which JSON does not carry.
func fuzzTime(zone uint8, sec, nsec int64, offset int32) time.Time {
	switch zone % 5 {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(sec, nsec).UTC()
	case 2:
		return time.Unix(sec, nsec).In(time.FixedZone("", int(offset)))
	case 3:
		return time.Unix(sec, nsec)
	}
	return time.Now()
}

// FuzzAppendEvent: the JSON appendEvent writes for an event is what
// json.Marshal gives for it — errors included — appended after what dst
// held.
func FuzzAppendEvent(f *testing.F) {
	const (
		nsTime    = int64(1_151_755_200) // 2006-07-01T12:00:00Z
		year10000 = int64(253_402_300_800)
	)
	// The escaping pieces of TestQuickEntryLines, plus the short escapes
	// and a valid U+FFFD.
	for _, s := range []string{
		"", "alice", "Branch=York, Period=2006", `<script>&amp;</script>`, `say "hi"\n`,
		"tab\there", "line\nbreak", "nul\x00ctl\x1f", "sep\xe2\x80\xa8and\xe2\x80\xa9", "bad\xff\xfeutf8",
		"日本語", "{}[],:", "\b\f\r\x7f", "\xef\xbf\xbd",
	} {
		f.Add(uint64(1), s, s, s, s, uint8(2), 1, "", uint8(1), nsTime, int64(999_999_999), int32(0))
	}
	// The zero time, a nanosecond UTC time, a fixed zone, local time, and
	// time.Now() with its monotonic reading.
	for zone := uint8(0); zone < 5; zone++ {
		f.Add(uint64(7), "alice", "Teller", "HandleCash", "Branch=York, Period=2006", uint8(2), 0, "0af7651916cd43dd8448eb211c80319c", zone, nsTime, int64(1), int32(-7*3600))
	}
	f.Add(uint64(1), "alice", "Teller", "op", "P=1", uint8(2), 0, "", uint8(1), year10000, int64(0), int32(0))
	f.Add(uint64(1), "alice", "Teller", "op", "P=1", uint8(2), 0, "", uint8(2), nsTime, int64(0), int32(-25*3600))
	f.Add(uint64(1), "alice", "Teller", "op", "P=1", uint8(0), 0, "", uint8(1), nsTime, int64(0), int32(0))      // nil roles
	f.Add(uint64(1), "alice", "Teller", "op", "P=1", uint8(1), -3, "", uint8(1), nsTime, int64(0), int32(0))     // empty roles
	f.Add(uint64(1<<63), "alice", "Teller", "op", "P=1", uint8(3), 1, "t", uint8(1), nsTime, int64(0), int32(0)) // three roles
	f.Add(uint64(0), "", "", "", "", uint8(0), 0, "", uint8(0), int64(0), int64(0), int32(0))                    // all empty

	f.Fuzz(func(t *testing.T, seq uint64, user, role, text, ctx string, roles uint8, matched int, trace string, zone uint8, sec, nsec int64, offset int32) {
		ev := Event{
			Seq: seq, Time: fuzzTime(zone, sec, nsec, offset), User: user, Operation: text, Target: role,
			Context: ctx, Effect: []string{EffectGrant, EffectDeny, text}[int(roles)%3],
			MatchedPolicies: matched, TraceID: trace,
		}
		switch roles % 4 {
		case 1:
			ev.Roles = []string{}
		case 2:
			ev.Roles = []string{role}
		case 3:
			ev.Roles = []string{role, text, user}
		}
		want, wantErr := json.Marshal(ev)
		got, err := appendEvent([]byte("xx"), &ev)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("event %+v: appendEvent error %v, json.Marshal error %v", ev, err, wantErr)
		}
		if err != nil {
			if string(got) != "xx" {
				t.Fatalf("event %+v: a refused event left %q behind", ev, got)
			}
			return
		}
		if !bytes.Equal(got[2:], want) || string(got[:2]) != "xx" {
			t.Fatalf("event %+v:\nappendEvent  %s\njson.Marshal   %s", ev, got, want)
		}
	})
}

// TestParentWrittenTrail: testdata/parent-trail is trailHistory() as the
// writer chained it before it encoded events by hand. Written today, the
// same events give the same segments byte for byte; and a writer resumes
// the parent's trail — verifying it to the head of its chain — and
// extends it to a trail both verifiers accept.
func TestParentWrittenTrail(t *testing.T) {
	parentDir := filepath.Join("testdata", "parent-trail")
	segs, err := Segments(parentDir)
	if err != nil || len(segs) != 6 {
		t.Fatalf("parent trail segments %v, %v; want 6", segs, err)
	}
	events := trailHistory()

	dir := t.TempDir()
	w, err := NewWriter(dir, parentTrailKey, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if _, err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	resumed := t.TempDir()
	for _, seg := range segs {
		want, err := os.ReadFile(filepath.Join(parentDir, seg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\nwritten today %q\nparent        %q", seg, got, want)
		}
		if err := os.WriteFile(filepath.Join(resumed, seg), want, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	if w, err = NewWriter(resumed, parentTrailKey, 4); err != nil {
		t.Fatalf("resume the parent's trail: %v", err)
	}
	for i, ev := range events {
		if seq, err := w.Append(ev); err != nil || seq != uint64(len(events)+i+1) {
			t.Fatalf("append %d after resume: seq %d, %v", i, seq, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(resumed, parentTrailKey)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Verify(); err != nil || n != 2*len(events) {
		t.Fatalf("Verify = %d, %v; want %d", n, err, 2*len(events))
	}
	v, err := NewIncrementalVerifier(resumed, parentTrailKey)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := v.Advance(); err != nil || n != 2*len(events) {
		t.Fatalf("Advance = %d, %v; want %d", n, err, 2*len(events))
	}
}

// TestRefusedEventLeavesNoGap: an event JSON cannot encode (a year past
// 9999) is refused before it takes a sequence number, so the next
// event follows the last one written and the trail still verifies.
func TestRefusedEventLeavesNoGap(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(ev("alice", "Teller", "op", EffectGrant, 1)); err != nil {
		t.Fatal(err)
	}
	far := ev("bob", "Teller", "op", EffectGrant, 1)
	far.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := w.Append(far); err == nil || !strings.Contains(err.Error(), "year outside of range") {
		t.Fatalf("append of year 10000: %v", err)
	}
	if seq, err := w.Append(ev("carol", "Teller", "op", EffectGrant, 1)); err != nil || seq != 2 {
		t.Fatalf("next append: seq %d, %v; want 2", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(dir, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Verify(); err != nil || n != 2 {
		t.Fatalf("Verify = %d, %v; want 2", n, err)
	}
}
