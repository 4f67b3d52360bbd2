package server

import (
	"io"
	"net/http"
	"strconv"

	"msod/internal/bctx"
	"msod/internal/jsonx"
	"msod/internal/rbac"
)

// answer is a 200 answer to POST /v1/decision or /v1/advice as its one
// writer (writeAnswer) and the idempotency cache (packAnswer) read it:
// views of the PDP's decision, the request's decoded strings and the
// trace and request IDs (decisionCall.answer), or of a cached entry
// (idemEntry.answer). Nothing in it is a copy. Its members are
// DecisionResponse's.
type answer struct {
	allowed                   bool
	phase, reason, user       string
	roles                     answerList
	recorded, purged, matched int
	activated, closed         answerList
	// traceID is the trace ID's text or, with rawTrace, the 16 bytes its
	// 32 lowercase hex digits spell (packedRawTrace).
	traceID   string
	rawTrace  bool
	requestID string
}

// answerList is one list of an answer, from one of three places: the roles
// the PDP decided on, the bound context instances of the engine's
// decision, or n texts as packAnswer packs them.
type answerList struct {
	roles  []rbac.RoleName
	names  []bctx.Name
	packed string
	n      int
}

func (l *answerList) len() int { return len(l.roles) + len(l.names) + l.n }

// writeAnswer answers 200 with a: the bytes an Encoder with HTML
// escaping off writes for the DecisionResponse of the same values (see
// WriteJSON), newline included. It writes through w's WriteString —
// net/http's response writer has one — in pieces: member names,
// separators and escapes are constant strings, and the rest are the
// strings a holds, so the answer costs no buffer of its own. A writer
// without WriteString is handed the answer in one Write, from one
// answerBuffer.
func writeAnswer(w http.ResponseWriter, a *answer) {
	SetJSONContentType(w.Header())
	w.WriteHeader(http.StatusOK)
	sw, ok := w.(io.StringWriter)
	var buf *answerBuffer
	if !ok {
		buf = new(answerBuffer)
		buf.b = buf.room[:0]
		sw = buf
	}
	o := answerWriter{sw}
	if a.allowed {
		o.raw(`{"allowed":true,"phase":"`)
	} else {
		o.raw(`{"allowed":false,"phase":"`)
	}
	o.str(a.phase)
	if a.reason != "" {
		o.raw(`","reason":"`)
		o.str(a.reason)
	}
	o.raw(`","user":"`)
	o.str(a.user)
	o.raw(`"`)
	o.list(`,"roles":[`, &a.roles)
	o.count(`,"recorded":`, a.recorded)
	o.count(`,"purged":`, a.purged)
	o.list(`,"activated":[`, &a.activated)
	o.list(`,"closed":[`, &a.closed)
	o.count(`,"matchedPolicies":`, a.matched)
	if a.rawTrace {
		const digits = "0123456789abcdef"
		o.raw(`,"traceID":"`)
		for i := 0; i < len(a.traceID); i++ {
			hi, lo := a.traceID[i]>>4, a.traceID[i]&0xf
			o.raw(digits[hi : hi+1])
			o.raw(digits[lo : lo+1])
		}
		o.raw(`"`)
	} else {
		o.text(`,"traceID":"`, a.traceID)
	}
	o.text(`,"requestID":"`, a.requestID)
	o.raw("}\n")
	if buf != nil {
		_, _ = w.Write(buf.b)
	}
}

// answerWriter writes an answer's pieces. A failed write is not
// reported: the connection is gone, and net/http drops what follows.
type answerWriter struct{ w io.StringWriter }

func (o answerWriter) raw(s string) { _, _ = o.w.WriteString(s) }

// str writes s escaped, without its quotes.
func (o answerWriter) str(s string) { _ = jsonx.WriteEscaped(o.w, s, false) }

// text writes a string member that is omitted when empty.
func (o answerWriter) text(key, s string) {
	if s != "" {
		o.raw(key)
		o.str(s)
		o.raw(`"`)
	}
}

// count writes a number member that is omitted when zero. strconv
// returns the numbers below 100 as constant strings.
func (o answerWriter) count(key string, n int) {
	if n != 0 {
		o.raw(key)
		o.raw(strconv.Itoa(n))
	}
}

// list writes a list member that is omitted when empty. A name is
// written component by component, which escapes to what its text
// would: escaping never spans an ASCII byte.
func (o answerWriter) list(key string, l *answerList) {
	if l.len() == 0 {
		return
	}
	o.raw(key)
	sep := `"`
	for _, r := range l.roles {
		o.raw(sep)
		o.str(string(r))
		sep = `","`
	}
	for _, n := range l.names {
		o.raw(sep)
		for i := 0; i < n.Len(); i++ {
			if i > 0 {
				o.raw(", ")
			}
			c := n.At(i)
			o.str(c.Type)
			o.raw("=")
			o.str(c.Value)
		}
		sep = `","`
	}
	for u := (unpacker{l.packed}); u.s != ""; {
		o.raw(sep)
		o.str(u.text())
		sep = `","`
	}
	o.raw(`"]`)
}

// answerBuffer gathers an answer for a ResponseWriter without
// WriteString. Its room holds the answer to a request of ordinary size,
// so it is the answer's one allocation; a longer answer grows it.
type answerBuffer struct {
	b    []byte
	room [512]byte
}

func (a *answerBuffer) WriteString(s string) (int, error) {
	a.b = append(a.b, s...)
	return len(s), nil
}
