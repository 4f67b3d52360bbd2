// Package jsonx appends JSON values to a caller's buffer exactly as
// encoding/json's Marshal writes them, for the durable logs that
// assemble their lines by hand: the retained ADI's WAL entry and the
// audit trail's event. The encoding is the log format, so it is
// encoding/json's to the byte — its string escaping with HTML escaping
// on (Marshal's default), and time.Time.MarshalJSON's text and errors —
// and the fuzz targets of its callers compare the two. The shard's
// decision answer is written through WriteEscaped with HTML escaping
// off, as an Encoder after SetEscapeHTML(false) writes it. It imports
// nothing from this module, so any layer may use it.
package jsonx

import (
	"errors"
	"fmt"
	"io"
	"time"
	"unicode/utf8"
)

// AppendString appends s as a JSON string: quoted and escaped.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = AppendEscaped(dst, s)
	return append(dst, '"')
}

// AppendEscaped appends the escaped body of s without the quotes, so a
// caller can write one JSON string in pieces. Escaping is per byte and
// per rune and never spans an ASCII byte, so pieces split at ASCII
// characters escape to what the whole string would.
//
// As encoding/json: '"' and '\\' are backslash-escaped; \b, \f, \n, \r
// and \t take their short forms and other bytes below 0x20 \u00XX;
// '<', '>' and '&' are written \u003c, \u003e and \u0026; an invalid
// UTF-8 byte is written \ufffd; U+2028 and U+2029 are escaped.
func AppendEscaped(dst []byte, s string) []byte {
	for {
		at, esc, size := escape(s, true)
		dst = append(dst, s[:at]...)
		if size == 0 {
			return dst
		}
		dst = append(dst, esc...)
		s = s[at+size:]
	}
}

// WriteEscaped writes the escaped body of s without the quotes to w, as
// AppendEscaped appends it, in pieces: the runs of s written as
// themselves, and each escape, a constant string. With html false '<',
// '>' and '&' are written as themselves, as by an encoding/json Encoder
// after SetEscapeHTML(false). It allocates nothing; an error of w ends
// the writing and is returned.
func WriteEscaped(w io.StringWriter, s string, html bool) error {
	for {
		at, esc, size := escape(s, html)
		if at > 0 {
			if _, err := w.WriteString(s[:at]); err != nil {
				return err
			}
		}
		if size == 0 {
			return nil
		}
		if _, err := w.WriteString(esc); err != nil {
			return err
		}
		s = s[at+size:]
	}
}

// escape finds the first byte of s that is not written as itself. It
// returns its index, the escape written in its place and the length of
// what the escape replaces: one byte, or the three of U+2028 and
// U+2029; len(s), "" and 0 when every byte is written as itself.
func escape(s string, html bool) (at int, esc string, size int) {
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if esc := asciiEscapes[b]; esc != "" && (html || !htmlByte(b)) {
				return i, esc, 1
			}
			i++
			continue
		}
		c, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && n == 1:
			return i, `\ufffd`, 1
		case c == '\u2028':
			return i, `\u2028`, n
		case c == '\u2029':
			return i, `\u2029`, n
		}
		i += n
	}
	return len(s), "", 0
}

// asciiEscapes is the escape of each ASCII byte that is not written as
// itself under HTML escaping, and "" for one that is.
var asciiEscapes = [utf8.RuneSelf]string{
	`\u0000`, `\u0001`, `\u0002`, `\u0003`, `\u0004`, `\u0005`, `\u0006`, `\u0007`,
	`\b`, `\t`, `\n`, `\u000b`, `\f`, `\r`, `\u000e`, `\u000f`,
	`\u0010`, `\u0011`, `\u0012`, `\u0013`, `\u0014`, `\u0015`, `\u0016`, `\u0017`,
	`\u0018`, `\u0019`, `\u001a`, `\u001b`, `\u001c`, `\u001d`, `\u001e`, `\u001f`,
	'"': `\"`, '\\': `\\`, '<': `\u003c`, '>': `\u003e`, '&': `\u0026`,
}

// htmlByte reports whether b is escaped only under HTML escaping.
func htmlByte(b byte) bool { return b == '<' || b == '>' || b == '&' }

// AppendTime appends t as time.Time.MarshalJSON writes it: the quoted
// RFC 3339 text with nanoseconds. A time RFC 3339 cannot spell — a year
// outside [0,9999], a zone offset of 24 hours or more — is the error
// MarshalJSON returns, and dst is then returned unchanged.
func AppendTime(dst []byte, t time.Time) ([]byte, error) {
	n0 := len(dst)
	b := append(dst, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	// The checks of time.Time.MarshalJSON, on the same text.
	num2 := func(b []byte) byte { return 10*(b[0]-'0') + (b[1] - '0') }
	switch {
	case b[n0+len(`"9999`)] != '-':
		return dst[:n0], errYear
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		if ('0' <= c && c <= '9') || num2(b[len(b)-len("07:00"):]) >= 24 {
			return dst[:n0], errZone
		}
	}
	return append(b, '"'), nil
}

// The errors of time.Time.MarshalJSON.
var (
	errYear = errors.New("Time.MarshalJSON: year outside of range [0,9999]")
	errZone = errors.New("Time.MarshalJSON: timezone hour outside of range [0,23]")
)

// FieldError is the error json.Marshal returns when the MarshalJSON
// method of a value fails with err; typ is the value's type as reflect
// spells it ("time.Time", "*time.Time").
func FieldError(typ string, err error) error {
	return fmt.Errorf("json: error calling MarshalJSON for type %s: %w", typ, err)
}
