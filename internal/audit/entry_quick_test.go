package audit

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// trailEvents is a batch of events for the property test below, drawn
// to hit what a hand-assembled JSON line could get wrong.
type trailEvents []Event

// Generate implements quick.Generator.
func (trailEvents) Generate(r *rand.Rand, _ int) reflect.Value {
	// Every escaping rule of encoding/json: HTML-sensitive characters,
	// quotes and backslashes, control characters, U+2028/U+2029, invalid
	// UTF-8 (marshalled as U+FFFD), plus the plain and the empty.
	pieces := []string{
		"", "alice", "Branch=York, Period=2006", `<script>&amp;</script>`, `say "hi"\n`,
		"tab\there", "line\nbreak", "nul\x00ctl\x1f", "sep and ", "bad\xff\xfeutf8", "日本語", "{}[],:",
	}
	str := func() string {
		s := ""
		for n := r.Intn(3); n >= 0; n-- {
			s += pieces[r.Intn(len(pieces))]
		}
		return s
	}
	times := []time.Time{
		{}, // zero: year 1
		time.Unix(0, 1).UTC(),
		time.Date(2006, 7, 1, 12, 0, 0, 999_999_999, time.UTC),
		time.Date(2006, 7, 1, 12, 0, 0, 0, time.FixedZone("", -7*3600)),
		time.Now(), // carries a monotonic reading and the local zone
	}
	traceIDs := []string{"", "0af7651916cd43dd8448eb211c80319c"}
	events := make(trailEvents, 1+r.Intn(12))
	for i := range events {
		ev := Event{
			Seq:             r.Uint64(), // overwritten by the writer
			Time:            times[r.Intn(len(times))],
			User:            str(),
			Operation:       str(),
			Target:          str(),
			Context:         str(),
			Effect:          []string{EffectGrant, EffectDeny, str()}[r.Intn(3)],
			MatchedPolicies: r.Intn(3),
			TraceID:         traceIDs[r.Intn(len(traceIDs))],
		}
		switch r.Intn(3) {
		case 0: // absent
		case 1:
			ev.Roles = []string{} // empty: omitted like absent
		case 2:
			for n := 1 + r.Intn(3); n > 0; n-- {
				ev.Roles = append(ev.Roles, str())
			}
		}
		events[i] = ev
	}
	return reflect.ValueOf(events)
}

// TestQuickEntryLines: whatever the events hold, every line the writer
// assembles by hand is the line json.Marshal gave when the writer
// marshalled an entry struct (marshalledEntry below), with the MAC an
// independent one-shot HMAC computes — so the format on disk is what it
// was — and both verifiers accept the trail, across segment rotation
// and across a Close and reopen (which rebuilds the keyed hash and reads
// the chain head back from the tail).
func TestQuickEntryLines(t *testing.T) {
	type marshalledEntry struct {
		Event Event  `json:"event"`
		MAC   string `json:"mac"`
	}
	referenceMAC := func(prev, payload []byte) []byte {
		mac := hmac.New(sha256.New, testKey)
		mac.Write(prev)
		mac.Write(payload)
		return mac.Sum(nil)
	}
	check := func(events trailEvents) bool {
		dir, err := os.MkdirTemp(t.TempDir(), "trail")
		if err != nil {
			t.Fatal(err)
		}
		const segSize = 4
		w, err := NewWriter(dir, testKey, segSize)
		if err != nil {
			t.Fatal(err)
		}
		reopenAt := len(events) / 2
		for i, ev := range events {
			if i == reopenAt {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if w, err = NewWriter(dir, testKey, segSize); err != nil {
					t.Logf("reopen after %d events: %v", i, err)
					return false
				}
			}
			if seq, err := w.Append(ev); err != nil || seq != uint64(i+1) {
				t.Logf("append %d: seq %d, %v", i, seq, err)
				return false
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		segs, err := Segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for _, seg := range segs {
			data, err := os.ReadFile(filepath.Join(dir, seg))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, data...)
		}
		var want []byte
		prev := referenceMAC(nil, []byte("msod-audit-genesis"))
		for i, ev := range events {
			ev.Seq = uint64(i + 1)
			payload, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			prev = referenceMAC(prev, payload)
			line, err := json.Marshal(marshalledEntry{Event: ev, MAC: hex.EncodeToString(prev)})
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, line...), '\n')
		}
		if !bytes.Equal(got, want) {
			t.Logf("trail bytes differ:\n got %q\nwant %q", got, want)
			return false
		}

		r, err := NewReader(dir, testKey)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := r.Verify(); err != nil || n != len(events) {
			t.Logf("Verify = %d, %v; want %d", n, err, len(events))
			return false
		}
		v, err := NewIncrementalVerifier(dir, testKey)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := v.Advance(); err != nil || n != len(events) || v.VerifiedSeq() != uint64(len(events)) {
			t.Logf("Advance = %d (seq %d), %v; want %d", n, v.VerifiedSeq(), err, len(events))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidUTF8EventVerifies is the defect the property above found
// in the verifiers it was written to pin: an event holding an invalid
// UTF-8 byte is written with the escape \ufffd, and a verifier that
// re-marshalled the parsed event (the character, unescaped) computed a
// different MAC — one such event made the trail "tampered" for good and
// the writer refuse to resume it. Verifiers MAC the bytes as written.
func TestInvalidUTF8EventVerifies(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(ev("al\xffice", "Teller", "op", EffectGrant, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = NewWriter(dir, testKey, 0); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if seq, err := w.Append(ev("bob", "Teller", "op", EffectGrant, 1)); err != nil || seq != 2 {
		t.Fatalf("append after resume: seq %d, %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(dir, testKey)
	if err != nil {
		t.Fatal(err)
	}
	events, err := r.All()
	if err != nil || len(events) != 2 || events[0].User != "al�ice" {
		t.Fatalf("All = %+v, %v", events, err)
	}
}
