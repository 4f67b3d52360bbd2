package jsonx

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestAppendStringMatchesMarshal: every byte on its own, the runes
// encoding/json treats specially, truncated UTF-8 sequences and mixes of
// them are appended as json.Marshal writes the string.
func TestAppendStringMatchesMarshal(t *testing.T) {
	inputs := []string{
		"", "plain", `<script>&amp;</script>`, `say "hi" \ back`, "\b\f\n\r\t\x00\x1f\x7f",
		"\xe2\x80\xa8", "\xe2\x80\xa9", "\xe2\x80\xaa", "\xef\xbf\xbd", "\xe6\x97\xa5\xe6\x9c\xac",
		"\xe6\x97", "\xe6\x97=x", "\xf0\x9f\x98", "\xf0\x9f\x98\x80", "bad\xff\xfeutf8", "\xc0\xaf",
		"\xed\xa0\x80", "a\xe2\x80\xa8b<c>d&e\"f\\g\x01h\xffi",
	}
	for b := 0; b < 256; b++ {
		inputs = append(inputs, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range inputs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("xx"), s); string(got) != "xx"+string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got[2:], want)
		}
	}
}

// TestWriteEscapedMatchesEncoder: WriteEscaped writes what AppendEscaped
// appends with HTML escaping on, and what an Encoder writes after
// SetEscapeHTML(false) with it off, for the inputs of
// TestAppendStringMatchesMarshal.
func TestWriteEscapedMatchesEncoder(t *testing.T) {
	inputs := []string{
		"", "plain", `<script>&amp;</script>`, `say "hi" \ back`, "\b\f\n\r\t\x00\x1f\x7f",
		"\xe2\x80\xa8", "\xe2\x80\xa9", "\xef\xbf\xbd", "\xe6\x97", "\xf0\x9f\x98\x80", "bad\xff\xfeutf8",
		"\xed\xa0\x80", "a\xe2\x80\xa8b<c>d&e\"f\\g\x01h\xffi",
	}
	for b := 0; b < 256; b++ {
		inputs = append(inputs, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range inputs {
		var on, off bytes.Buffer
		if WriteEscaped(&on, s, true) != nil || WriteEscaped(&off, s, false) != nil {
			t.Fatal("a bytes.Buffer failed a write")
		}
		if want := AppendEscaped(nil, s); !bytes.Equal(on.Bytes(), want) {
			t.Errorf("WriteEscaped(%q, html) = %s, AppendEscaped %s", s, on.Bytes(), want)
		}
		var enc bytes.Buffer
		e := json.NewEncoder(&enc)
		e.SetEscapeHTML(false)
		if err := e.Encode(s); err != nil {
			t.Fatal(err)
		}
		if want := enc.Bytes(); `"`+off.String()+"\"\n" != string(want) {
			t.Errorf("WriteEscaped(%q) = %s, the Encoder %s", s, off.Bytes(), want)
		}
	}
}

// TestAppendEscapedInPieces: a string split at its ASCII bytes escapes
// piece by piece to what it escapes to whole — what a caller writing a
// context name component by component relies on.
func TestAppendEscapedInPieces(t *testing.T) {
	for _, s := range []string{
		"Branch=<York>, Period=\xe2\x80\xa8", "T=\xe6\x97, U=\x97v", "A=\xff, B=\xfe\xff", "x=\"q\", y=\\",
	} {
		whole := AppendEscaped(nil, s)
		var pieces []byte
		start := 0
		for i := 0; i < len(s); i++ {
			if c := s[i]; c == '=' || c == ',' || c == ' ' {
				pieces = AppendEscaped(pieces, s[start:i])
				pieces = append(pieces, c)
				start = i + 1
			}
		}
		pieces = AppendEscaped(pieces, s[start:])
		if !bytes.Equal(pieces, whole) {
			t.Errorf("%q: in pieces %s, whole %s", s, pieces, whole)
		}
	}
}

// TestAppendTimeMatchesMarshal: a time is appended as
// time.Time.MarshalJSON writes it — nanoseconds, zones, the zero time,
// a monotonic reading dropped — and refused with its error, which
// FieldError turns into json.Marshal's for the field.
func TestAppendTimeMatchesMarshal(t *testing.T) {
	for _, tm := range []time.Time{
		{},
		time.Unix(0, 1).UTC(),
		time.Date(2006, 7, 1, 12, 0, 0, 999_999_999, time.UTC),
		time.Date(2006, 7, 1, 12, 0, 0, 120_000_000, time.FixedZone("", -7*3600)),
		time.Date(2006, 7, 1, 12, 0, 0, 0, time.FixedZone("IST", 5*3600+1800)),
		time.Date(2006, 7, 1, 12, 0, 0, 0, time.FixedZone("LMT", -(7*3600+47))),
		time.Now(),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2006, 7, 1, 12, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2006, 7, 1, 12, 0, 0, 0, time.FixedZone("", -100*3600)),
	} {
		want, wantErr := tm.MarshalJSON()
		got, err := AppendTime([]byte("xx"), tm)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%v: AppendTime error %v, MarshalJSON error %v", tm, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() || string(got) != "xx" {
				t.Errorf("%v: AppendTime %q, %v; MarshalJSON %v", tm, got, err, wantErr)
			}
			_, fieldErr := json.Marshal(struct{ T time.Time }{tm})
			if FieldError("time.Time", err).Error() != fieldErr.Error() {
				t.Errorf("%v: FieldError %v, json.Marshal %v", tm, FieldError("time.Time", err), fieldErr)
			}
			continue
		}
		if string(got) != "xx"+string(want) {
			t.Errorf("%v: AppendTime %s, MarshalJSON %s", tm, got[2:], want)
		}
	}
}
