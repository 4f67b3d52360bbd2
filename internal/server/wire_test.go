package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"msod/internal/credential"
)

// wireCorpus seeds FuzzDecodeDecisionRequest and is the table the
// property tests below walk: every shape of body the decoder has a
// branch or a delegation for, valid and not.
func wireCorpus(t testing.TB) []string {
	soa, err := credential.NewAuthority("bank.example")
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2007, 4, 15, 9, 0, 0, 0, time.UTC)
	signed, err := soa.IssueRole("alice", "Teller", at, at.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	withCredential, err := json.Marshal(DecisionRequest{Credentials: []credential.Credential{signed},
		Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=p1"})
	if err != nil {
		t.Fatal(err)
	}
	corpus := []string{
		clerkPrepares,
		string(withCredential),
		// What the gateway sends: a spliced requestID last.
		`{"user":"alice","roles":["Teller","Auditor"],"operation":"HandleCash","target":"till","context":"Branch=York, Period=p1","requestID":"0123456789abcdef0123456789abcdef"}`,
		// Duplicates: the last one wins, whatever its spelling.
		`{"user":"a","user":"b"}`,
		`{"user":"a","User":"b","USER":"c"}`,
		`{"USER":"c","user":"a"}`,
		"{\"u\u017fer\":\"long-s folds onto s\"}",
		"{\"\u212aey\":\"kelvin\",\"conte\u212at\":\"no such field\"}",
		`{"requestid":"folded","REQUESTID":"again"}`,
		// Escapes, in keys and in values.
		`{"\u0075ser":"escaped key"}`,
		`{"us\u0065r":"a","user":"b"}`,
		`{"user":"\u0041lice"}`,
		`{"user":"smile \ud83d\ude00","target":"lone \ud83d surrogate"}`,
		`{"user":"tab\tquote\"slash\\\/"}`,
		`{"user":"bad escape \x"}`,
		`{"user":"short \u12"}`,
		"{\"user\":\"caf\u00e9\"}",
		"{\"user\":\"invalid utf-8 \xff\xfe\"}",
		"{\"us\xffer\":\"invalid utf-8 in a key\"}",
		"{\"user\":\"raw\ttab\"}",
		"{\"user\":\"raw\nnewline\"}",
		// null for every member is a no-op.
		`{"user":null,"roles":null,"credentials":null,"operation":null,"target":null,"context":null,"environment":null,"requestID":null}`,
		`{"user":"kept","user":null,"roles":["kept"],"roles":null}`,
		`{"requestID":"kept","requestID":null}`,
		`{"requestID":""}`,
		// Wrong types.
		`{"user":5}`,
		`{"user":true}`,
		`{"user":{"name":"x"}}`,
		`{"roles":"x"}`,
		`{"roles":["a",1]}`,
		`{"roles":{"a":"b"}}`,
		`{"credentials":"x"}`,
		`{"credentials":[{"holder":5}]}`,
		`{"credentials":[{"holder":"h","issuer":5}]}`,
		`{"environment":["x"]}`,
		`{"environment":{"k":1}}`,
		`{"requestID":1e3}`,
		// Arrays: empty, repeated, with nulls, with escapes.
		`{"roles":[]}`,
		`{"roles":[ ]}`,
		`{"roles":[null]}`,
		`{"roles":["a","b","c"],"roles":["x"],"roles":["y",null,null,null]}`,
		`{"roles":["a"],"roles":[]}`,
		`{"roles":[ "a" , "b" ]}`,
		`{"roles":["com,ma","quo\"te"]}`,
		`{"roles":["a",]}`,
		`{"roles":["a" "b"]}`,
		`{"roles":[,"a"]}`,
		// Answers: the members the gateway's answer peek reads.
		`{"allowed":true,"phase":"granted","user":"alice","purged":3,"closed":["Branch=*, Period=p1"]}`,
		`{"user":"alice","activated":["TaxOffice=o1, taxRefundProcess=p2"],"closed":["A=1","B=\u0032"],"closed":null}`,
		`{"user":"alice","closed":"A=1"}`,
		`{"user":"alice","closed":["A=1",2]}`,
		`{"user":"alice","CLOSED":[{"context":"A=1"}]}`,
		// Unknown members: validated and skipped.
		`{"unknown":{"nested":"} \" ] [","deeper":[{"x":"}"}]},"user":"after"}`,
		`{"unknown":[1,2.5,-3e+7,true,false,null,"s"],"user":"after"}`,
		`{"unknown":tru,"user":"after"}`,
		`{"unknown":01}`,
		`{"unknown":1.}`,
		`{"unknown":-}`,
		`{"unknown":+1}`,
		`{"unknown":.5}`,
		`{"unknown":1e}`,
		`{"unknown":nul}`,
		`{"unknown":nulll}`,
		`{"unknown":[1 2]}`,
		`{"unknown":[}`,
		`{"unknown":{]}`,
		`{"unknown":{"a"}}`,
		`{"unknown":12"x"}`,
		`{"unknown":}`,
		`{"unknown":,"user":"x"}`,
		`{"":"empty key"}`,
		// The object itself.
		`{}`,
		` { } `,
		"\t\r\n{\"user\" : \"spaced\" , \"target\"\n:\n\"out\"\n}\r\n",
		`{"user":"a",}`,
		`{,"user":"a"}`,
		`{"user":"a" "target":"b"}`,
		`{"user" "a"}`,
		`{"user":"a"`,
		`{"user":"a`,
		`{"user":`,
		`{"user"`,
		`{"us`,
		`{`,
		``,
		` `,
		`{user:"a"}`,
		`{'user':'a'}`,
		// Not an object.
		`null`,
		` null `,
		`[]`,
		`["user"]`,
		`"user"`,
		`5`,
		`true`,
		"\ufeff{}",
		// Trailing bytes.
		`{"user":"a"}x`,
		`{"user":"a"}{}`,
		`{"user":"a"}}`,
		`{"user":"a"} ,`,
		// Credentials and environment: encoding/json's own merging.
		`{"credentials":[{"holder":"a","issuer":"i"}],"credentials":[{}]}`,
		`{"credentials":[{"holder":"a"},{"holder":"b"}],"credentials":[{"holder":"c"}],"credentials":[{},{}]}`,
		`{"credentials":[{"holder":""},{"Holder":"second"}]}`,
		`{"credentials":[{"holder":"a","HOLDER":"b","notBefore":"2007-04-15T09:00:00+02:00"}]}`,
		`{"credentials":[{"notBefore":"yesterday"}]}`,
		`{"credentials":[{"signature":"not base64!"}]}`,
		`{"credentials":[]}`,
		`{"credentials":[],"user":"u"}`,
		`{"credentials":[null]}`,
		// The credential reader: its plain shape, spaced and reordered,
		// and each shape it leaves to encoding/json.
		`{"credentials":[ { "signature" : "c2lnbmVk" , "notAfter":"2007-04-15T10:00:00Z","attributes":[ {"value":"Teller" ,"type":"role"} , {"type":"","value":""} ],"issuer":"i","holder":"alice" } , {} ]}`,
		`{"credentials":[{"holder":"","issuer":"i"},{"holder":"second"},{"holder":"third"}],"user":""}`,
		`{"credentials":[{"holder":"alice","signature":""}]}`,
		`{"credentials":[{"holder":"\u0061lice","issuer":"i"}]}`,
		`{"credentials":[{"holder":"alice","issuer":"i\n"}]}`,
		`{"credentials":[{"holder":"alice","attributes":[{"type":"role","value":"Tell\u0065r"}]}]}`,
		`{"credentials":[{"holder":"alice","attributes":null}]}`,
		`{"credentials":[{"holder":"alice","attributes":[]}]}`,
		`{"credentials":[{"holder":"alice","attributes":[null]}]}`,
		`{"credentials":[{"holder":"alice","attributes":[{"type":"a","type":"b"}]}]}`,
		`{"credentials":[{"holder":"alice","attributes":[{"type":"a","role":"b"}]}]}`,
		`{"credentials":[{"holder":"alice","attributes":[{"Type":"a","VALUE":5}]}]}`,
		`{"credentials":[{"holder":"alice","attributes":{"type":"a"}}]}`,
		`{"credentials":[{"holder":"a","holder":"b"}]}`,
		`{"credentials":[{"holder":"alice","attributes":[{"type":"a","value":"1"},{"type":"b"}],"attributes":[{"value":"2"}]}]}`,
		`{"credentials":[{"holder":"alice","notBefore":"yesterday","notBefore":"2007-04-15T09:00:00Z"}]}`,
		`{"credentials":[{"holder":"alice","signature":"not base64!","signature":"c2ln"}]}`,
		`{"credentials":[{"holder":"a","issuer":"i"}],"credentials":[{"issuer":"j"},{"holder":"b"}]}`,
		`{"credentials":[{"holder":"a"},{"holder":"b"}],"credentials":null,"credentials":[{}]}`,
		`{"credentials":[{"Holder":"alice"}]}`,
		`{"credentials":[{"HOLDER":"alice","Issuer":"i","NOTBEFORE":"2007-04-15T09:00:00Z"}]}`,
		`{"credentials":[{"holder":"alice","extension":{"x":[1]}}]}`,
		`{"credentials":[{"holder":"alice","issuer":7}]}`,
		`{"credentials":[{"holder":5,"issuer":"i"}],"user":"u"}`,
		`{"credentials":[{"holder":"alice","signature":"YQ"}]}`,
		`{"credentials":[{"holder":"alice","signature":"not base64!"}],"user":"u"}`,
		`{"credentials":[{"holder":"alice","signature":null}]}`,
		`{"credentials":[{"holder":"alice","notBefore":"2007-04-15T09:00:00.123456789+02:00","notAfter":"2007-04-15T09:00:00-07:30"}]}`,
		`{"credentials":[{"holder":"alice","notAfter":"2007-04-15T25:00:00Z"}]}`,
		`{"credentials":[{"holder":"alice","notAfter":null}]}`,
		`{"credentials":[{"holder":"alice","notBefore":5}]}`,
		`{"credentials":[{"holder":"alice"},null]}`,
		`{"credentials":[{"holder":"alice"},"x"]}`,
		`{"environment":{"time":"09:00","ip":"10.0.0.1"}}`,
		`{"environment":{"a":"1"},"environment":{"b":"2"},"environment":{"a":"3"}}`,
		`{"environment":{}}`,
		`{"environment":{"a":null}}`,
	}
	// Nesting at encoding/json's limit, and one past it.
	for _, depth := range []int{maxNesting - 1, maxNesting} {
		corpus = append(corpus, `{"unknown":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`)
	}
	return corpus
}

// isTopLevelNull: the one body json.Unmarshal accepts (as a no-op) and
// the decoder may refuse.
func isTopLevelNull(body []byte) bool {
	return string(bytes.Trim(body, " \t\r\n")) == "null"
}

// checkDecode holds the decoder to json.Unmarshal on one body: the same
// bodies accepted, the same struct out — and still the same after every
// byte of the body is overwritten, so no decoded string aliases it (the
// gateway splices into its own body in place, and a retained decision
// would keep a whole body alive). It returns the decoded request of an
// accepted body.
func checkDecode(t testing.TB, body []byte) (DecisionRequest, bool) {
	t.Helper()
	var want, got DecisionRequest
	wantErr := json.Unmarshal(body, &want)
	own := bytes.Clone(body)
	gotErr := DecodeDecisionRequest(own, &got)
	if (wantErr == nil) != (gotErr == nil) && !(isTopLevelNull(body) && wantErr == nil) {
		t.Fatalf("%q: json.Unmarshal says %v, DecodeDecisionRequest says %v", body, wantErr, gotErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n decoded %#v\n    want %#v", body, got, want)
	}
	for i := range own {
		own[i] = '#'
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: overwriting the body changed what was decoded from it:\n decoded %#v\n    want %#v", body, got, want)
	}
	return got, gotErr == nil
}

// TestDecodedTextIsOneString pins what a decoded request keeps alive:
// the strings of a gateway-spliced bank body lie end to end in one
// string that holds nothing else — no key, no punctuation — and an
// unrouted body's string ends with the trace ID minted for it.
func TestDecodedTextIsOneString(t *testing.T) {
	const bank = `{"user":"alice","roles":["Teller","Auditor"],"operation":"HandleCash","target":"till","context":"Branch=York, Period=p1"}`
	peek, err := PeekDecisionRequest([]byte(bank))
	if err != nil {
		t.Fatal(err)
	}
	spliced := peek.SpliceRequestID([]byte(bank), "0123456789abcdef0123456789abcdef")
	for _, tc := range []struct {
		body    []byte
		traceID bool
	}{{spliced, false}, {[]byte(bank), true}} {
		var req DecisionRequest
		id, err := decodeRequest(tc.body, &req, tc.traceID)
		if err != nil {
			t.Fatal(err)
		}
		texts := append([]string{req.User, req.Operation, req.Target, req.Context}, req.Roles...)
		if req.RequestID != "" {
			texts = append(texts, req.RequestID)
		}
		if tc.traceID != id.Valid() {
			t.Fatalf("%s: minted trace ID %q with traceID %v", tc.body, id, tc.traceID)
		}
		sort.Slice(texts, func(i, j int) bool { return textStart(texts[i]) < textStart(texts[j]) })
		for i := 1; i < len(texts); i++ {
			if textStart(texts[i]) != textStart(texts[i-1])+uintptr(len(texts[i-1])) {
				t.Fatalf("%s: %q does not start where %q ends", tc.body, texts[i], texts[i-1])
			}
		}
		if last := texts[len(texts)-1]; id != "" && textStart(string(id)) != textStart(last)+uintptr(len(last)) {
			t.Fatalf("%s: the trace ID does not end the string after %q", tc.body, last)
		}
	}
}

// textStart is where a string's bytes are.
func textStart(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }

// checkPeek holds the gateway's peek to the decoder on one body: every
// body the shard would decode is peeked, and says what the decoded
// request says — its subject by RoutingSubject, the one rule.
func checkPeek(t testing.TB, body []byte) {
	t.Helper()
	var req DecisionRequest
	if DecodeDecisionRequest(body, &req) != nil {
		return
	}
	peek, err := PeekDecisionRequest(body)
	if err != nil {
		t.Fatalf("%q: decodes, but the peek says %v", body, err)
	}
	if subject := req.RoutingSubject(); peek.Subject != subject || peek.RequestID != req.RequestID {
		t.Fatalf("%q: peeked %+v; decoded subject %q, requestID %q", body, peek, subject, req.RequestID)
	}
}

// checkSplice: a requestID spliced into an accepted body that has none
// is the decoded request's, and nothing else about the request changes
// — with the spare capacity the gateway reads a body with (the splice
// then happens in place) and with none (a chunked body comes with
// whatever ReadAll left).
func checkSplice(t testing.TB, body []byte) {
	t.Helper()
	var want DecisionRequest
	if DecodeDecisionRequest(body, &want) != nil || want.RequestID != "" {
		return
	}
	peek, err := PeekDecisionRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	const id = "0123456789abcdef0123456789abcdef"
	want.RequestID = id
	for _, spare := range []int{64, 0} {
		original := make([]byte, len(body), len(body)+spare)
		copy(original, body)
		spliced := peek.SpliceRequestID(original, id)
		if spare > 0 && len(original) > 0 && &spliced[0] != &original[0] {
			t.Fatalf("%q: the splice moved a body that had room for it", body)
		}
		var stamped DecisionRequest
		if err := DecodeDecisionRequest(spliced, &stamped); err != nil || !reflect.DeepEqual(stamped, want) {
			t.Fatalf("%q spliced to %q:\n decoded %#v (%v)\n    want %#v", body, spliced, stamped, err, want)
		}
		if err := json.Unmarshal(spliced, new(DecisionRequest)); err != nil {
			t.Fatalf("%q spliced to %q: %v", body, spliced, err)
		}
	}
}

// FuzzDecodeDecisionRequest is the decoder's correctness gate:
// differential against json.Unmarshal, plus the peek and splice
// properties, on every input.
func FuzzDecodeDecisionRequest(f *testing.F) {
	for _, body := range wireCorpus(f) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
		checkPeek(t, body)
		checkSplice(t, body)
		checkAnswerPeek(t, body)
	})
}

// checkAnswerPeek holds the gateway's peek at an answer to
// json.Unmarshal into the members it reads, on one body: both refuse it
// or neither does (bar a top-level null, which only Unmarshal takes),
// and what they read is the same. A closed or activated member the peek
// misread would close, or fail to open, an instance on every shard.
func checkAnswerPeek(t testing.TB, body []byte) {
	t.Helper()
	var want struct {
		User      string   `json:"user"`
		Activated []string `json:"activated"`
		Closed    []string `json:"closed"`
	}
	wantErr := json.Unmarshal(body, &want)
	if wantErr == nil && string(bytes.TrimSpace(body)) == "null" {
		wantErr = errors.New("null is not an answer")
	}
	got, err := PeekDecisionAnswer(body, "alice")
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: json.Unmarshal says %v, the answer peek says %v", body, wantErr, err)
	}
	if err == nil && (got.User != want.User || !reflect.DeepEqual(got.Activated, want.Activated) || !reflect.DeepEqual(got.Closed, want.Closed)) {
		t.Fatalf("%q: peeked %+v, want %+v", body, got, want)
	}
}

// wireRequest is a generated DecisionRequest for testing/quick.
type wireRequest DecisionRequest

// wireText draws strings from an alphabet where every class the scanner
// distinguishes is likely: plain, escapes, structure inside strings,
// non-ASCII, invalid UTF-8, control characters.
func wireText(r *rand.Rand) string {
	alphabet := []string{"a", "B", "9", " ", `"`, `\`, "/", "}", "{", "]", "[", ",", ":", "\t", "\n", "\x00", "é", "\u017f", "😀", "\xff", "\u2028"}
	var b strings.Builder
	for n := r.Intn(6); n > 0; n-- {
		b.WriteString(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

func (wireRequest) Generate(r *rand.Rand, _ int) reflect.Value {
	req := wireRequest{User: wireText(r), Operation: wireText(r), Target: wireText(r), Context: wireText(r)}
	for n := r.Intn(4); n > 0; n-- {
		req.Roles = append(req.Roles, wireText(r))
	}
	for n := r.Intn(3); n > 0; n-- {
		c := credential.Credential{Holder: wireText(r), Issuer: wireText(r),
			NotBefore: time.Unix(r.Int63n(1<<32), 0).UTC(), NotAfter: time.Unix(r.Int63n(1<<32), 0).UTC()}
		for m := r.Intn(3); m > 0; m-- {
			c.Attributes = append(c.Attributes, credential.Attribute{Type: wireText(r), Value: wireText(r)})
		}
		if r.Intn(2) == 0 {
			c.Signature = []byte(wireText(r))
		}
		req.Credentials = append(req.Credentials, c)
	}
	if r.Intn(3) == 0 {
		req.Environment = map[string]string{wireText(r): wireText(r)}
	}
	if r.Intn(3) == 0 {
		req.RequestID = wireText(r)
	}
	return reflect.ValueOf(req)
}

// scramble re-spells a marshalled request without changing what it
// says to encoding/json: members in random order, some twice (so the
// later one must win), some preceded by a null, keys in random case,
// white space wherever JSON allows it.
func scramble(t *testing.T, r *rand.Rand, marshalled []byte) []byte {
	var members map[string]json.RawMessage
	if err := json.Unmarshal(marshalled, &members); err != nil {
		t.Fatal(err)
	}
	space := func() string { return []string{"", "", " ", "\n", "\t \r"}[r.Intn(5)] }
	var out []string
	add := func(key string, value json.RawMessage) {
		if r.Intn(3) == 0 {
			key = []string{strings.ToUpper(key), strings.ToLower(key)}[r.Intn(2)]
		}
		out = append(out, fmt.Sprintf("%s%q%s:%s%s%s", space(), key, space(), space(), value, space()))
	}
	for key, value := range members {
		if r.Intn(4) == 0 {
			add(key, json.RawMessage(`null`))
		}
		if r.Intn(4) == 0 && key != "roles" && key != "credentials" && key != "environment" {
			add(key, json.RawMessage(`"overwritten"`)) // a composite would merge instead
		}
		add(key, value)
		if r.Intn(4) == 0 {
			add("extension", json.RawMessage(`{"ignored":[1,"}",{"deep":null}]}`))
		}
	}
	return []byte(space() + "{" + strings.Join(out, ",") + "}" + space())
}

// forEachBody calls check with every corpus body and with generated
// requests, as json.Marshal spells them and scrambled.
func forEachBody(t *testing.T, check func(body []byte, marshalled *DecisionRequest)) {
	for _, body := range wireCorpus(t) {
		check([]byte(body), nil)
	}
	r := rand.New(rand.NewSource(20070415))
	property := func(generated wireRequest) bool {
		req := DecisionRequest(generated)
		marshalled, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		check(marshalled, &req)
		check(scramble(t, r, marshalled), nil)
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 1000, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeDecisionRequestIsUnmarshal is the fuzz target's differential
// check over the corpus and testing/quick bodies.
func TestDecodeDecisionRequestIsUnmarshal(t *testing.T) {
	accepted := 0
	forEachBody(t, func(body []byte, _ *DecisionRequest) {
		if _, ok := checkDecode(t, body); ok {
			accepted++
		}
	})
	if accepted < 2000 {
		t.Fatalf("only %d bodies were accepted: the generator no longer exercises the decoder", accepted)
	}
}

// TestPeekAgreesWithDecode: routing key, has-credentials and
// has-requestID as the gateway peeks them are what the full decode says.
func TestPeekAgreesWithDecode(t *testing.T) {
	forEachBody(t, func(body []byte, _ *DecisionRequest) { checkPeek(t, body) })
}

// TestSpliceRequestID: see checkSplice; and for a body in
// DecisionRequest member order — what server.Client and the benchmark
// send — the splice is byte for byte json.Marshal of the stamped
// struct, so the gateway's hop bytes are what re-marshalling sent.
func TestSpliceRequestID(t *testing.T) {
	forEachBody(t, func(body []byte, marshalled *DecisionRequest) {
		checkSplice(t, body)
		if marshalled == nil || marshalled.RequestID != "" {
			return
		}
		peek, err := PeekDecisionRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		stamped := *marshalled
		stamped.RequestID = "fedcba9876543210fedcba9876543210"
		want, err := json.Marshal(stamped)
		if err != nil {
			t.Fatal(err)
		}
		if spliced := peek.SpliceRequestID(body[:len(body):len(body)], stamped.RequestID); !bytes.Equal(spliced, want) {
			t.Fatalf("spliced  %s\nmarshals %s", spliced, want)
		}
	})
}

// TestPeekDecisionAnswer: what the gateway reads of an answer is what
// json.Unmarshal into a DecisionResponse reads, and an answer that is
// not one well-formed object, or whose user, activated or closed member
// has the wrong type, is an error: the gateway fails closed on it, and
// for closed that is what keeps a half-read answer from being forwarded
// with its instances left open on every other shard.
func TestPeekDecisionAnswer(t *testing.T) {
	for _, body := range []string{
		`{"allowed":true,"phase":"granted","user":"alice"}`,
		`{"allowed":true,"phase":"granted","user":"alice","roles":["Teller"],"recorded":1,"matchedPolicies":1,"traceID":"t","requestID":"r"}` + "\n",
		`{"allowed":false,"phase":"msod","reason":"denied: \"quoted\"","user":"bob"}`,
		`{"user":"alice","activated":["Branch=York, Period=p1","Branch=Leeds, Period=p1"]}`,
		`{"user":"alice","activated":[]}`,
		`{"user":"alice","activated":null}`,
		`{"user":"alice","closed":["Branch=*, Period=p1"],"purged":3}`,
		`{"user":"alice","activated":["TaxOffice=o1, taxRefundProcess=p2"],"closed":["Branch=*, Period=p1","A=1"]}`,
		`{"user":"alice","closed":[]}`,
		`{"user":"alice","closed":null,"Closed":["\u0041=1"]}`,
		`{"user":"a","USER":"b"}`,
		`{"user":"\u0061lice","Activated":["\u0041"]}`,
		`{"user":null}`,
		`{"user":""}`,
		`{"phase":"granted"}`,
		`{}`,
		`{"user":"alice","extension":{"not":["declared"]}}`,
		// Refused.
		`{"user":5}`,
		`{"user":"alice","activated":"x"}`,
		`{"user":"alice","activated":[1]}`,
		`{"user":"alice","closed":"Branch=*, Period=p1"}`,
		`{"user":"alice","closed":[{"context":"A=1"}]}`,
		`{"user":"alice","closed":["A=1",2]}`,
		`{"user":"alice","closed":{"A":"1"}}`,
		`{"user":"alice"`,
		`{"user":"alice"}x`,
		`{"user":"alice","extension":tru}`,
		`["alice"]`,
		`"alice"`,
		``,
		`<html>502 Bad Gateway</html>`,
	} {
		var want DecisionResponse
		wantErr := json.Unmarshal([]byte(body), &want)
		for _, subject := range []string{"alice", "someone else"} {
			got, err := PeekDecisionAnswer([]byte(body), subject)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%q: json.Unmarshal says %v, the peek says %v", body, wantErr, err)
			}
			if err != nil {
				continue
			}
			allowed, phase := got.Verdict()
			if got.User != want.User || !reflect.DeepEqual(got.Activated, want.Activated) || !reflect.DeepEqual(got.Closed, want.Closed) || allowed != want.Allowed || phase != want.Phase {
				t.Fatalf("%q: peeked %+v %v %q, want %+v", body, got, allowed, phase, want)
			}
		}
	}
	// Members the gateway does not read are only validated: a wrong
	// type there is the PEP's to see, verbatim.
	if _, err := PeekDecisionAnswer([]byte(`{"user":"alice","recorded":"one"}`), "alice"); err != nil {
		t.Fatal(err)
	}
}
