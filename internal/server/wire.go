package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"msod/internal/credential"
	"msod/internal/obsv"
)

// This file is the one reader of decision requests and answers as
// bytes: a scanner over the top-level members of a JSON object, and its
// three consumers — the shard's request decoder, and the gateway's peek
// at a request (routing key, credentials, requestID) and at an answer
// (resolved subject, activations, closes, verdict). The scanner finds
// where each member's value ends; what a value MEANS is encoding/json's
// business wherever it is anything but a plain ASCII string, an array
// of them, a bare literal, or a credentials array of the plain shape
// (whose times and signature go through the functions encoding/json
// itself calls): every other value is handed to json.Valid or, for a
// declared field, to json.Unmarshal into that field. So which duplicate
// wins, how keys fold, what null does and how a repeated array merges
// are encoding/json's rules, not a reimplementation of them — and
// FuzzDecodeDecisionRequest holds the result to json.Unmarshal of the
// whole body. Gateway and shard match keys through the same field(), so
// they cannot disagree about which member is the user.

// maxNesting is encoding/json's nesting limit. It counts the enclosing
// object, so a member's value may itself nest maxNesting-1 deep.
const maxNesting = 10000

// member is one top-level member of a scanned object.
type member struct {
	key   []byte // unquoted
	value []byte // raw: one well-formed JSON value
	// plain says value is a string that is its own content between the
	// quotes: printable ASCII, no escapes.
	plain bool
}

// members walks the top-level members of the one JSON object in data.
type members struct {
	data []byte
	off  int // the next unread byte
	n    int // members returned so far
	end  int // offset of the closing brace, once next has reported it
}

func skipSpace(d []byte, i int) int {
	for i < len(d) && (d[i] == ' ' || d[i] == '\t' || d[i] == '\r' || d[i] == '\n') {
		i++
	}
	return i
}

// delimits reports whether c ends a literal or a number.
func delimits(c byte) bool {
	switch c {
	case ',', '}', ']', ' ', '\t', '\r', '\n':
		return true
	}
	return false
}

func syntaxError(d []byte, i int, want string) error {
	if i >= len(d) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d, expected %s", d[i], i, want)
}

// scanObject opens the object that must be data's one value.
func scanObject(data []byte) (members, error) {
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return members{}, syntaxError(data, i, "a JSON object")
	}
	return members{data: data, off: i + 1}, nil
}

// scanString returns the offset just past the string opening at d[i],
// or -1 when it never closes. A string that is not plain still has to
// be validated (escapes, control characters) by whoever takes it.
func scanString(d []byte, i int) (end int, plain bool) {
	plain = true
	for i++; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			return i + 1, plain
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return -1, false
}

// skipNested returns the offset just past the object or array opening
// at d[i], judged by brackets and strings alone, or -1 when it never
// closes. Whether what is in between is JSON is for json.Valid to say.
func skipNested(d []byte, i int) (int, error) {
	for depth := 0; i < len(d); i++ {
		switch d[i] {
		case '"':
			end, _ := scanString(d, i)
			if end < 0 {
				return -1, nil
			}
			i = end - 1
		case '{', '[':
			if depth++; depth >= maxNesting {
				return -1, errors.New("exceeded max depth")
			}
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1, nil
			}
		}
	}
	return -1, nil
}

// valueEnd returns the offset just past the value starting at d[i],
// judged as scanString, skipNested and delimits judge it, -1 when it
// never closes; plain is scanString's.
func valueEnd(d []byte, i int) (end int, plain bool, err error) {
	switch {
	case i >= len(d):
		return i, false, nil
	case d[i] == '"':
		end, plain = scanString(d, i)
		return end, plain, nil
	case d[i] == '{' || d[i] == '[':
		end, err = skipNested(d, i)
		return end, false, err
	}
	// A literal or a number runs to the next delimiter.
	for end = i; end < len(d) && !delimits(d[end]); end++ {
	}
	return end, false, nil
}

// next returns the next member, or ok false after the last one — by
// then the object has closed at m.end and only white space followed.
// Every value it returns has been validated as one JSON value.
func (m *members) next() (mem member, ok bool, err error) {
	d := m.data
	i := skipSpace(d, m.off)
	switch {
	case i < len(d) && d[i] == '}':
		m.end = i
		if i = skipSpace(d, i+1); i < len(d) {
			return member{}, false, syntaxError(d, i, "nothing after the top-level value")
		}
		return member{}, false, nil
	case m.n > 0:
		if i >= len(d) || d[i] != ',' {
			return member{}, false, syntaxError(d, i, "a comma or the closing brace")
		}
		i = skipSpace(d, i+1)
	}
	if i >= len(d) || d[i] != '"' {
		return member{}, false, syntaxError(d, i, "a member name")
	}
	end, plain := scanString(d, i)
	if end < 0 {
		return member{}, false, syntaxError(d, len(d), "")
	}
	mem.key = d[i+1 : end-1]
	if !plain {
		var key string
		if err := json.Unmarshal(d[i:end], &key); err != nil {
			return member{}, false, err
		}
		mem.key = []byte(key)
	}
	if i = skipSpace(d, end); i >= len(d) || d[i] != ':' {
		return member{}, false, syntaxError(d, i, "a colon after the member name")
	}
	i = skipSpace(d, i+1)
	if end, mem.plain, err = valueEnd(d, i); err != nil {
		return member{}, false, err
	}
	if end < 0 || end == len(d) {
		return member{}, false, syntaxError(d, len(d), "")
	}
	mem.value = d[i:end]
	if !mem.plain {
		switch string(mem.value) {
		case "true", "false", "null":
		default:
			if !json.Valid(mem.value) {
				return member{}, false, fmt.Errorf("invalid value at offset %d for member %q", i, mem.key)
			}
		}
	}
	m.off, m.n = end, m.n+1
	return mem, true, nil
}

// field returns which of the named struct fields a member key sets —
// the exact name, else the one it equals under the simple case folding
// encoding/json applies — or "".
func field(names []string, key []byte) string {
	if i := fieldIndex(names, key); i >= 0 {
		return names[i]
	}
	return ""
}

// fieldIndex is field's answer as an index into names, or -1.
func fieldIndex(names []string, key []byte) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// delegate has encoding/json decode raw into *into, exactly as it
// would have when it met the member inside the whole body: into keeps
// what earlier members left there. It decodes through a copy so that
// the struct into belongs to need not move to the heap for the sake of
// values that never take this path.
func delegate[T any](raw []byte, into *T) error {
	v := *into
	err := json.Unmarshal(raw, &v)
	*into = v
	return err
}

// text is the content of a plain string member.
func (mem member) text() []byte { return mem.value[1 : len(mem.value)-1] }

// str stores a string member.
func (mem member) str(into *string) error {
	if mem.plain {
		*into = string(mem.text())
		return nil
	}
	return delegate(mem.value, into)
}

// strs stores an array-of-strings member. It takes the array itself
// only when nothing is stored yet and every element is a plain string;
// an empty array, a null element or a second array over the first are
// encoding/json's to interpret (it reuses the slice it is given, and
// elements past the new length can come back).
func (mem member) strs(into *[]string) error {
	if *into == nil && mem.value[0] == '[' {
		out := make([]string, 0, bytes.Count(mem.value, []byte{','})+1)
		if plainStrings(mem.value, func(text []byte) { out = append(out, string(text)) }) {
			*into = out
			return nil
		}
	}
	return delegate(mem.value, into)
}

// plainStrings calls take with the text of each element of the array
// d, known to be well formed, while they are plain strings, and reports
// whether all of them were (an empty array's none is not).
func plainStrings(d []byte, take func(text []byte)) bool {
	for i := 1; ; {
		if i = skipSpace(d, i); d[i] != '"' {
			return false
		}
		end, plain := scanString(d, i)
		if !plain {
			return false
		}
		take(d[i+1 : end-1])
		if i = skipSpace(d, end); d[i] == ']' {
			return true
		}
		i++ // the comma
	}
}

// plainText returns the content of a member's raw value when it is a
// plain string — empty but not nil for "" — and nil when the member is
// absent (raw nil); ok is false for any other value.
func plainText(raw []byte) (text []byte, ok bool) {
	if raw == nil {
		return nil, true
	}
	if raw[0] != '"' {
		return nil, false
	}
	if _, plain := scanString(raw, 0); !plain {
		return nil, false
	}
	return raw[1 : len(raw)-1], true
}

// credentialFields are credential.Credential's JSON names and
// attributeFields credential.Attribute's, in the order of the raw
// values eachObject splits an element into.
var (
	credentialFields = [...]string{"holder", "issuer", "attributes", "notBefore", "notAfter", "signature"}
	attributeFields  = [...]string{"type", "value"}
)

// eachObject is the credential reader's walk over the array d, known
// to be well formed. It splits each element into vals — the raw value
// of each member at its field's index in names, nil where there is no
// such member — and calls take. It reports false, take having seen
// some elements or none, when d is a shape it leaves to encoding/json:
// not an array, an empty one, an element that is not an object, a key
// that is not plain or names no field, a field named twice, or an
// element take refuses.
func eachObject(d []byte, names []string, vals [][]byte, take func() bool) bool {
	if d[0] != '[' {
		return false
	}
	for i := 1; ; {
		if i = skipSpace(d, i); d[i] != '{' {
			return false
		}
		clear(vals)
		for i = skipSpace(d, i+1); d[i] != '}'; {
			end, plain := scanString(d, i)
			f := fieldIndex(names, d[i+1:end-1])
			if !plain || f < 0 || vals[f] != nil {
				return false
			}
			i = skipSpace(d, skipSpace(d, end)+1) // past the colon
			end, _, _ = valueEnd(d, i)
			vals[f] = d[i:end]
			if i = skipSpace(d, end); d[i] == ',' {
				i = skipSpace(d, i+1)
			}
		}
		if !take() {
			return false
		}
		if i = skipSpace(d, i+1); d[i] == ']' {
			return true
		}
		i++ // the comma
	}
}

// takeCredentials stores a credentials member. Like strs, it takes the
// array itself, its strings left to gather, only when nothing is stored
// yet and it is of the plain shape: objects whose members each name a
// field once, holder and issuer plain strings, attributes a non-empty array of such objects
// of plain strings, validity bounds plain strings that
// (*time.Time).UnmarshalJSON — what encoding/json calls — takes, and a
// plain base64 signature, decoded into a buffer sized as encoding/json
// sizes it. Every other shape — escapes, a null, a repeated member, a
// second array — is encoding/json's.
func (t *texts) takeCredentials(mem member, req *DecisionRequest) error {
	if req.Credentials == nil {
		var out []credential.Credential
		var v [len(credentialFields)][]byte
		if eachObject(mem.value, credentialFields[:], v[:], func() bool {
			c, ok := plainCredential(&v)
			out = append(out, c)
			return ok
		}) {
			req.Credentials, t.creds = out, mem.value
			return nil
		}
	}
	if t.creds != nil { // the array merges into their strings
		t.gather(req, false)
	}
	return delegate(mem.value, &req.Credentials)
}

// plainCredential builds a credential from the raw values of its
// members, in credentialFields' order, as encoding/json would bar its
// strings, or reports false for a shape it leaves to encoding/json.
func plainCredential(v *[len(credentialFields)][]byte) (c credential.Credential, ok bool) {
	_, okHolder := plainText(v[0])
	_, okIssuer := plainText(v[1])
	sig, okSig := plainText(v[5])
	if !okHolder || !okIssuer || !okSig {
		return c, false
	}
	for i, bound := range [...]*time.Time{&c.NotBefore, &c.NotAfter} {
		if raw := v[3+i]; raw != nil {
			if _, ok := plainText(raw); !ok || bound.UnmarshalJSON(raw) != nil {
				return c, false
			}
		}
	}
	if sig != nil {
		c.Signature = make([]byte, base64.StdEncoding.DecodedLen(len(sig)))
		n, err := base64.StdEncoding.Decode(c.Signature, sig)
		if err != nil {
			return c, false
		}
		c.Signature = c.Signature[:n]
	}
	if v[2] != nil {
		var a [len(attributeFields)][]byte
		if !eachObject(v[2], attributeFields[:], a[:], func() bool {
			_, okType := plainText(a[0])
			_, okValue := plainText(a[1])
			c.Attributes = append(c.Attributes, credential.Attribute{})
			return okType && okValue
		}) {
			return c, false
		}
	}
	return c, true
}

// credentialHolder reads a credentials array of the plain shape as
// encoding/json decodes it into holder-only elements: it has at least
// one, and holder is the first non-empty one (nil when there is none).
// ok is false for any other shape.
func credentialHolder(d []byte) (holder []byte, ok bool) {
	var v [len(credentialFields)][]byte
	ok = eachObject(d, credentialFields[:], v[:], func() bool {
		h, plain := plainText(v[0])
		if len(holder) == 0 {
			holder = h
		}
		return plain
	})
	return holder, ok
}

// requestFields are DecisionRequest's JSON names.
var requestFields = []string{"user", "roles", "credentials", "operation", "target", "context", "environment", "requestID"}

// DecodeDecisionRequest decodes a request body into req (which should
// be zero) as json.Unmarshal would: it accepts the bodies Unmarshal
// accepts, bar a top-level null, and leaves an accepted body's req as
// Unmarshal would, the strings it takes from plain members substrings
// of one string of their text alone (DESIGN §5c).
func DecodeDecisionRequest(body []byte, req *DecisionRequest) error {
	_, err := decodeRequest(body, req, false)
	return err
}

// decodeRequest is DecodeDecisionRequest; with traceID, the one string
// ends with a trace ID minted for the request, which it returns.
func decodeRequest(body []byte, req *DecisionRequest, traceID bool) (obsv.TraceID, error) {
	ms, err := scanObject(body)
	var t texts
	for more := err == nil; more; more = err == nil {
		var mem member
		if mem, more, err = ms.next(); err != nil || !more {
			break
		}
		switch field(requestFields, mem.key) {
		case "user":
			err = mem.pending(&t.user, &req.User)
		case "roles":
			err = t.takeRoles(mem, req)
		case "credentials":
			err = t.takeCredentials(mem, req)
		case "operation":
			err = mem.pending(&t.operation, &req.Operation)
		case "target":
			err = mem.pending(&t.target, &req.Target)
		case "context":
			err = mem.pending(&t.context, &req.Context)
		case "environment":
			err = delegate(mem.value, &req.Environment)
		case "requestID":
			err = mem.pending(&t.requestID, &req.RequestID)
		}
	}
	if err != nil {
		return "", err
	}
	return t.gather(req, traceID), nil
}

// texts is what a decode has taken from plain members and not yet
// copied out of the body, nil where it has taken nothing: the text of a
// string member, and the raw value of a roles or credentials array
// taken whole, whose elements the request holds without their strings.
type texts struct {
	user, operation, target, context, requestID []byte
	roles, creds                                []byte
}

// pending stores a string member: a plain one's text waits in *text,
// and any other value but a null (a no-op) is encoding/json's.
func (mem member) pending(text *[]byte, into *string) error {
	if mem.plain {
		*text = mem.text()
		return nil
	}
	if string(mem.value) != "null" {
		*text = nil
	}
	return delegate(mem.value, into)
}

// takeRoles stores a roles member as strs does, leaving the strings of an
// array it takes to gather.
func (t *texts) takeRoles(mem member, req *DecisionRequest) error {
	n := 0
	if req.Roles == nil && mem.value[0] == '[' && plainStrings(mem.value, func([]byte) { n++ }) {
		req.Roles, t.roles = make([]string, n), mem.value
		return nil
	}
	if t.roles != nil { // the array merges into their strings
		t.gather(req, false)
	}
	return delegate(mem.value, &req.Roles)
}

// each sets every string t holds the text of to what set returns for
// that text, in one order.
func (t *texts) each(req *DecisionRequest, set func(text []byte) string) {
	texts := [...][]byte{t.user, t.operation, t.target, t.context, t.requestID}
	for i, into := range [...]*string{&req.User, &req.Operation, &req.Target, &req.Context, &req.RequestID} {
		if texts[i] != nil {
			*into = set(texts[i])
		}
	}
	if t.roles != nil {
		i := 0
		plainStrings(t.roles, func(text []byte) { req.Roles[i] = set(text); i++ })
	}
	if t.creds != nil {
		content := func(raw []byte) []byte { text, _ := plainText(raw); return text }
		var v [len(credentialFields)][]byte
		var a [len(attributeFields)][]byte
		k := 0
		eachObject(t.creds, credentialFields[:], v[:], func() bool {
			c := &req.Credentials[k]
			c.Holder, c.Issuer = set(content(v[0])), set(content(v[1]))
			k++
			j := 0
			return v[2] == nil || eachObject(v[2], attributeFields[:], a[:], func() bool {
				c.Attributes[j] = credential.Attribute{Type: set(content(a[0])), Value: set(content(a[1]))}
				j++
				return true
			})
		})
	}
}

// gather copies every text t holds into one string, sets each string it
// is for to its substring and empties t. With traceID the string ends
// with a trace ID minted into it, which it returns.
func (t *texts) gather(req *DecisionRequest, traceID bool) obsv.TraceID {
	var id []byte
	if traceID {
		id = obsv.AppendTraceID(make([]byte, 0, 32))
	}
	n := len(id)
	t.each(req, func(text []byte) string { n += len(text); return "" })
	var b strings.Builder
	b.Grow(n)
	substring := func(text []byte) string {
		b.Write(text)
		s := b.String()
		return s[len(s)-len(text):]
	}
	t.each(req, substring)
	*t = texts{}
	return obsv.TraceID(substring(id))
}

// RequestPeek is what the gateway needs of a decision request it is
// about to forward as the bytes it was given.
type RequestPeek struct {
	// Subject is the routing key: the decoded request's RoutingSubject.
	// A cluster shard refuses a request whose credentials resolve to
	// another subject (421), and the gateway checks the answer.
	Subject string
	// RequestID is the requestID the decoded request would carry.
	RequestID string

	end   int  // offset of the body's closing brace
	empty bool // the object has no members
}

// PeekDecisionRequest reads from a request body what routing needs,
// agreeing with DecodeDecisionRequest on every body that one accepts.
// It may accept a body the decoder refuses (a credential whose issuer
// is a number): the shard refuses it then.
func PeekDecisionRequest(body []byte) (RequestPeek, error) {
	ms, err := scanObject(body)
	if err != nil {
		return RequestPeek{}, err
	}
	var user, requestID string
	var creds []byte // the first credentials member, until a second one comes
	var holders []struct {
		Holder string `json:"holder"`
	}
	for {
		mem, ok, err := ms.next()
		if err != nil {
			return RequestPeek{}, err
		}
		if !ok {
			break
		}
		switch field(requestFields, mem.key) {
		case "user":
			err = mem.str(&user)
		case "credentials":
			if creds == nil && holders == nil {
				creds = mem.value
				break
			}
			if creds != nil { // a second array merges into what the first left
				err, creds = delegate(creds, &holders), nil
			}
			if err == nil {
				err = delegate(mem.value, &holders)
			}
		case "requestID":
			err = mem.str(&requestID)
		}
		if err != nil {
			return RequestPeek{}, err
		}
	}
	peek := RequestPeek{Subject: user, RequestID: requestID, end: ms.end, empty: ms.n == 0}
	if creds != nil {
		if holder, ok := credentialHolder(creds); ok {
			if peek.Subject == "" {
				peek.Subject = string(holder)
			}
			return peek, nil
		}
		if err := delegate(creds, &holders); err != nil {
			return RequestPeek{}, err
		}
	}
	for i := 0; peek.Subject == "" && i < len(holders); i++ {
		peek.Subject = holders[i].Holder
	}
	return peek, nil
}

// requestIDMember is how a requestID is spelled when spliced in: the
// bytes json.Marshal writes for DecisionRequest's last field.
const requestIDMember = `,"requestID":"`

// SpliceRequestID returns body with a requestID member set in front of
// the closing brace p found, so it is the last member and the one every
// decoder keeps. body must be the slice p was peeked from, and id needs
// no escaping; the splice happens in place when body has the spare
// capacity.
func (p RequestPeek) SpliceRequestID(body []byte, id string) []byte {
	name := requestIDMember
	if p.empty {
		name = name[1:] // no member to put a comma after
	}
	n := len(name) + len(id) + 1
	tail := len(body) - p.end
	body = append(body, make([]byte, n)...)
	copy(body[p.end+n:], body[p.end:p.end+tail])
	at := p.end + copy(body[p.end:], name)
	at += copy(body[at:], id)
	body[at] = '"'
	return body
}

// answerFields are the members of a decision answer the gateway reads.
var answerFields = []string{"user", "activated", "closed", "allowed", "phase"}

// AnswerPeek is what the gateway checks of a shard's answer before
// forwarding it verbatim.
type AnswerPeek struct {
	// User is the subject the shard resolved, Activated the context
	// instances the decision started and Closed the ones it terminated.
	User      string
	Activated []string
	Closed    []string

	allowed, phase []byte // raw, for Verdict
}

// PeekDecisionAnswer reads them from a 200 body. An error means the
// body is not one well-formed JSON object, or user, activated or closed
// has the wrong type: an answer nobody can act on. subject is the routing
// key the request went out under: an answer that names it, as nearly
// every one does, gets that string as its User instead of a copy.
func PeekDecisionAnswer(body []byte, subject string) (AnswerPeek, error) {
	var peek AnswerPeek
	ms, err := scanObject(body)
	if err != nil {
		return AnswerPeek{}, err
	}
	for {
		mem, ok, err := ms.next()
		if err != nil {
			return AnswerPeek{}, err
		}
		if !ok {
			return peek, nil
		}
		switch field(answerFields, mem.key) {
		case "user":
			if mem.plain && string(mem.text()) == subject {
				peek.User = subject
			} else {
				err = mem.str(&peek.User)
			}
		case "activated":
			err = mem.strs(&peek.Activated)
		case "closed":
			err = mem.strs(&peek.Closed)
		case "allowed":
			peek.allowed = mem.value
		case "phase":
			peek.phase = mem.value
		}
		if err != nil {
			return AnswerPeek{}, err
		}
	}
}

// Verdict decodes the outcome for a log line; the checks never need it.
// A member of the wrong type reads as its zero value.
func (p AnswerPeek) Verdict() (allowed bool, phase string) {
	_ = json.Unmarshal(p.allowed, &allowed)
	_ = json.Unmarshal(p.phase, &phase)
	return allowed, phase
}
