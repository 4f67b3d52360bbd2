package server

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"msod/internal/bctx"
	"msod/internal/race"
	"msod/internal/rbac"
)

// FuzzAnswerWriter: writeAnswer writes, for any answer, the bytes
// WriteJSON writes for the DecisionResponse of the same values, through
// a writer with WriteString and one without. Roles are split at NUL.
// The activated and closed names are split at NUL into names, a name at
// \x01 into components and a component at its first \x02 into type and
// value; a name bctx refuses is left out of both.
func FuzzAnswerWriter(f *testing.F) {
	const trace = "0af7651916cd43dd8448eb211c80319c"
	f.Add(true, "granted", "", "alice", "Teller", "", "", 1, 0, 1, trace, "r1")
	f.Add(false, "msod", "MSoD denial: <a & b>", "bob", "Auditor\x00Teller", "", "", 0, 0, 2, trace, "")
	f.Add(true, "granted", "", "c1", "Clerk", "TaxOffice\x02Leeds\x01taxRefundProcess\x02p1", "", 3, 0, 1, trace, "r3")
	f.Add(true, "granted", "", "c2", "Clerk", "", "A\x02<1>\x00B\x02\"2\"\x01C\x02\\3", 0, 7, 1, "", "")
	f.Add(false, "rbac\xc3(", "\xed\xa0\x80", "\xff\xfeal\x00ice", "\xc0\xaf", "T\x02\xff v", "T\x02\x01\x1f\x7f", 0, 0, 0, "not-hex", "\xff")
	f.Add(true, "", "", "", "", "", "", 128, math.MaxInt, math.MinInt, "", "")
	split := func(s string, sep string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, sep)
	}
	names := func(s string) ([]bctx.Name, []string) {
		var names []bctx.Name
		var text []string
		for _, name := range split(s, "\x00") {
			var comps []bctx.Component
			for _, c := range split(name, "\x01") {
				typ, val, _ := strings.Cut(c, "\x02")
				comps = append(comps, bctx.Component{Type: typ, Value: val})
			}
			if n, err := bctx.NewName(comps...); err == nil {
				names, text = append(names, n), append(text, n.String())
			}
		}
		return names, text
	}
	f.Fuzz(func(t *testing.T, allowed bool, phase, reason, user, roles, activated, closed string, recorded, purged, matched int, traceID, requestID string) {
		a := answer{
			allowed: allowed, phase: phase, reason: reason, user: user,
			recorded: recorded, purged: purged, matched: matched,
			traceID: traceID, requestID: requestID,
		}
		resp := DecisionResponse{
			Allowed: allowed, Phase: phase, Reason: reason, User: user, Roles: split(roles, "\x00"),
			Recorded: recorded, Purged: purged, MatchedPolicies: matched,
			TraceID: traceID, RequestID: requestID,
		}
		for _, r := range resp.Roles {
			a.roles.roles = append(a.roles.roles, rbac.RoleName(r))
		}
		a.activated.names, resp.Activated = names(activated)
		a.closed.names, resp.Closed = names(closed)
		want := httptest.NewRecorder()
		WriteJSON(want, http.StatusOK, &resp)
		got := httptest.NewRecorder()
		writeAnswer(got, &a)
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("writeAnswer %s\nencoder     %s", got.Body.Bytes(), want.Body.Bytes())
		}
		var plain bytesOnly
		plain.header = http.Header{}
		writeAnswer(&plain, &a)
		if !bytes.Equal(plain.body.Bytes(), want.Body.Bytes()) || plain.status != http.StatusOK {
			t.Fatalf("without WriteString %d %s\nencoder     %s", plain.status, plain.body.Bytes(), want.Body.Bytes())
		}
		if got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("Content-Type %q, WriteJSON's %q", got.Header().Get("Content-Type"), want.Header().Get("Content-Type"))
		}
	})
}

// TestAnswerWithoutWriteStringAllocs: a ResponseWriter without
// WriteString is handed the answer in one Write, from one buffer of its
// own.
func TestAnswerWithoutWriteStringAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	a := answer{
		allowed: true, phase: "granted", user: "alice", recorded: 1, matched: 1,
		roles:     answerList{roles: []rbac.RoleName{"Teller"}},
		activated: answerList{names: []bctx.Name{bctx.MustParse("TaxOffice=Leeds, taxRefundProcess=p1")}},
		traceID:   "0af7651916cd43dd8448eb211c80319c", requestID: "r1",
	}
	w := &bytesOnly{header: http.Header{}}
	allocs := testing.AllocsPerRun(100, func() {
		w.body.Reset()
		writeAnswer(w, &a)
	})
	if allocs != 1 {
		t.Fatalf("%v allocations, want the buffer's 1", allocs)
	}
}

// bytesOnly is a ResponseWriter without WriteString.
type bytesOnly struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *bytesOnly) Header() http.Header         { return w.header }
func (w *bytesOnly) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *bytesOnly) WriteHeader(status int)      { w.status = status }
