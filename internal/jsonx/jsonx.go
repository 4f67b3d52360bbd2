// Package jsonx appends JSON values to a caller's buffer exactly as
// encoding/json's Marshal writes them, for the durable logs that
// assemble their lines by hand: the retained ADI's WAL entry and the
// audit trail's event. The encoding is the log format, so it is
// encoding/json's to the byte — its string escaping with HTML escaping
// on (Marshal's default), and time.Time.MarshalJSON's text and errors —
// and the fuzz targets of its callers compare the two. It imports
// nothing from this module, so any layer may use it.
package jsonx

import (
	"errors"
	"fmt"
	"time"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

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
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// safe reports whether an ASCII byte is written as itself.
func safe(b byte) bool {
	return b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

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
