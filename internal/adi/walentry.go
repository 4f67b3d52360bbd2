package adi

import (
	"fmt"
	"time"
	"unicode/utf8"

	"msod/internal/bctx"
	"msod/internal/jsonx"
	"msod/internal/rbac"
)

// The WAL line's plaintext. A logged mutation is one Op, written by
// appendWALEntry straight from the records in hand into the store's
// scratch — byte for byte the json.Marshal of the walEntry recovery
// decodes it to (FuzzAppendWALEntry compares the two) — and then
// applied to the memory store by Apply, the function recovery runs on
// the decoded op. TestLiveStateIsReopenedState holds the two ends
// together.

// walEntry is one logged mutation as recovery decodes it.
type walEntry struct {
	// Op is "append", "purgeContext", "purgeUser", "purgeBefore" or,
	// in the key-check marker only, "keycheck".
	Op string `json:"op"`
	// Records carries the appended records (wire form).
	Records []wireRecord `json:"records,omitempty"`
	// Pattern is the purgeContext scope.
	Pattern string `json:"pattern,omitempty"`
	// User is the purgeUser subject.
	User string `json:"user,omitempty"`
	// Before is the purgeBefore cutoff, and absent from every other
	// entry.
	Before *time.Time `json:"before,omitempty"`
}

// keycheckEntry is the key-check marker's plaintext: the json.Marshal
// of walEntry{Op: "keycheck"}.
const keycheckEntry = `{"op":"keycheck"}`

// op decodes the Op the entry logs.
func (e walEntry) op() (Op, error) {
	switch e.Op {
	case "append":
		recs := make([]Record, len(e.Records))
		for i, w := range e.Records {
			r, err := fromWire(w)
			if err != nil {
				return Op{}, err
			}
			recs[i] = r
		}
		return Op{Kind: OpRecord, Records: recs}, nil
	case "purgeContext":
		pattern, err := bctx.Parse(e.Pattern)
		return Op{Kind: OpClose, Bound: pattern}, err
	case "purgeUser":
		return Op{Kind: OpPurgeUser, User: rbac.UserID(e.User)}, nil
	case "purgeBefore":
		var before time.Time
		if e.Before != nil {
			before = *e.Before
		}
		return Op{Kind: OpPurgeBefore, Time: before}, nil
	}
	return Op{}, fmt.Errorf("unknown wal op %q", e.Op)
}

// appendWALEntry appends the JSON of the entry logging op to dst: an
// OpRecord is an "append", an OpClose a "purgeContext", an OpPurgeUser
// a "purgeUser" and an OpPurgeBefore a "purgeBefore". The other kinds
// reach the log as those (Apply maps them onto the store's Append and
// purges) and are an error here, as is a time JSON cannot spell; dst is
// then returned unchanged.
func appendWALEntry(dst []byte, op Op) ([]byte, error) {
	n0 := len(dst)
	var err error
	switch op.Kind {
	case OpRecord:
		dst = append(dst, `{"op":"append"`...)
		if len(op.Records) > 0 {
			dst = append(dst, `,"records":[`...)
			for i := range op.Records {
				if i > 0 {
					dst = append(dst, ',')
				}
				if dst, err = appendWireRecord(dst, &op.Records[i]); err != nil {
					return dst[:n0], err
				}
			}
			dst = append(dst, ']')
		}
	case OpClose:
		dst = append(dst, `{"op":"purgeContext"`...)
		if !op.Bound.IsUniversal() {
			dst = append(dst, `,"pattern":`...)
			dst = appendName(dst, op.Bound)
		}
	case OpPurgeUser:
		dst = append(dst, `{"op":"purgeUser"`...)
		if op.User != "" {
			dst = append(dst, `,"user":`...)
			dst = jsonx.AppendString(dst, string(op.User))
		}
	case OpPurgeBefore:
		dst = append(dst, `{"op":"purgeBefore","before":`...)
		if dst, err = jsonx.AppendTime(dst, op.Time); err != nil {
			return dst[:n0], jsonx.FieldError("*time.Time", err)
		}
	default:
		return dst, fmt.Errorf("adi: op kind %d has no wal entry", op.Kind)
	}
	return append(dst, '}'), nil
}

// appendWireRecord appends the JSON of the record's wireRecord.
func appendWireRecord(dst []byte, r *Record) ([]byte, error) {
	dst = append(dst, `{"user":`...)
	dst = jsonx.AppendString(dst, string(r.User))
	if len(r.Roles) > 0 {
		dst = append(dst, `,"roles":[`...)
		for i, role := range r.Roles {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonx.AppendString(dst, string(role))
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"op":`...)
	dst = jsonx.AppendString(dst, string(r.Operation))
	dst = append(dst, `,"target":`...)
	dst = jsonx.AppendString(dst, string(r.Target))
	dst = append(dst, `,"ctx":`...)
	dst = appendName(dst, r.Context)
	dst = append(dst, `,"time":`...)
	dst, err := jsonx.AppendTime(dst, r.Time)
	if err != nil {
		return dst, jsonx.FieldError("time.Time", err)
	}
	return append(dst, '}'), nil
}

// appendName appends the name's canonical text (String) as a JSON
// string. It escapes component by component: the separators are ASCII,
// which no escape spans, so that is the escaping of the whole text.
func appendName(dst []byte, n bctx.Name) []byte {
	dst = append(dst, '"')
	for i := 0; i < n.Len(); i++ {
		c := n.At(i)
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = jsonx.AppendEscaped(dst, c.Type)
		dst = append(dst, '=')
		dst = jsonx.AppendEscaped(dst, c.Value)
	}
	return append(dst, '"')
}

// loggable refuses an op the log cannot restore: text that is not
// valid UTF-8, which JSON writes as U+FFFD, or a time whose zone offset
// has seconds, which RFC 3339 drops. The store reopened from its line
// would hold other records than the store it was applied to live.
func loggable(op Op) error {
	ok := validName(op.Bound) && utf8.ValidString(string(op.User)) && restorable(op.Time)
	for i := 0; ok && i < len(op.Records); i++ {
		r := &op.Records[i]
		ok = validName(r.Context) && utf8.ValidString(string(r.User)) && utf8.ValidString(string(r.Operation)) &&
			utf8.ValidString(string(r.Target)) && restorable(r.Time)
		for _, role := range r.Roles {
			ok = ok && utf8.ValidString(string(role))
		}
	}
	if !ok {
		return fmt.Errorf("adi: the log cannot restore %+v: text not UTF-8 or a zone offset in seconds", op)
	}
	return nil
}

// validName reports whether every component of n is valid UTF-8.
func validName(n bctx.Name) bool {
	for i := 0; i < n.Len(); i++ {
		if c := n.At(i); !utf8.ValidString(c.Type) || !utf8.ValidString(c.Value) {
			return false
		}
	}
	return true
}

// restorable reports whether t's RFC 3339 text names its instant: the
// zone offset is whole minutes.
func restorable(t time.Time) bool {
	_, offset := t.Zone()
	return offset%60 == 0
}
