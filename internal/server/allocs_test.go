package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"msod/internal/credential"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/race"
	"msod/internal/trace"
)

const bankPolicyXML = `
<RBACPolicy id="bank-1">
  <RoleList><Role value="Teller"/><Role value="Auditor"/></RoleList>
  <RoleAssignmentPolicy>
    <Assignment soa="bank.example" role="Teller"/>
  </RoleAssignmentPolicy>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
    <Grant role="Auditor" operation="Audit" target="ledger"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="Teller"/>
        <Role type="e" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

// memoryWriter is an http.ResponseWriter that keeps the response in
// memory and is reused across requests, so a measured ServeHTTP pays
// for the handler and nothing of the connection. It has WriteString,
// as net/http's response writer does.
type memoryWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memoryWriter) Header() http.Header               { return w.header }
func (w *memoryWriter) Write(p []byte) (int, error)       { return w.body.Write(p) }
func (w *memoryWriter) WriteString(s string) (int, error) { return w.body.WriteString(s) }
func (w *memoryWriter) WriteHeader(status int)            { w.status = status }

// TestServeDecisionAllocs is the handler's allocation budget: what
// Server.ServeHTTP allocates for one POST /v1/decision, request already
// built, response into memory. Each kind of decision is served by three
// servers over a memory ADI: "default" as msodd assembles it with every
// flag at its default (event broker fed by the PDP's observer, decision
// ring, tail sampler), "bare" (no observer, no broker, no sampler,
// decision ring off), and "all-on": default with the sampler keeping
// every grant (SampleEvery 1) and a live subscriber draining the broker. All
// trace every request — the spans feed the stage histograms — so the
// difference between default and bare is what the retained telemetry
// costs (the benchmark's server.telemetry_allocs) and the bare column is
// decode, decide, encode and the spans. All-on costs what default does:
// a kept grant's spans go into its recycled record as a denial's do, the
// sampling hash allocates nothing, and the subscriber receives a copy of
// the event through its buffered channel.
//
// Budgets are exact; a change that moves one edits the table and names
// the allocation. The rings are sized below the number of warm-up
// requests, so the measured requests run in the steady state of a
// long-lived shard: every decision record is a recycled one.
//
// What every case pays, for a body naming a user and one role (6):
//
//	decode 3    the body, read into one slice of its Content-Length (1);
//	            the one string DecodeDecisionRequest copies the text of
//	            the user, operation, target, context and role into, each
//	            a substring of it, ending with the trace ID minted for a
//	            request without a traceparent (1); the Roles slice (1).
//	            It was 7 while the five strings were each their own (4)
//	            and the minted trace ID was one more, under request (1);
//	            13 while encoding/json decoded the whole body: gone are the
//	            DecisionRequest moved to the heap for Unmarshal (1), the
//	            decodeState (1), its parse stack at depth 1 and 2 (2), its
//	            error context and field stack (2)
//	request 3   the parsed context name (1) and Roles as []rbac.RoleName
//	            (1), made after the idempotency claim (the parse stage),
//	            so a replay pays neither; the decision's context, which
//	            holds the trace with its spans inline and the explain
//	            entry (1). It was 4 while the Trace (1) and the context
//	            value carrying it (1) were apart
//	respond 0   writeAnswer writes the answer in pieces through the
//	            writer's WriteString, from the PDP's decision, the
//	            engine's bound names and the request's strings: nothing
//	            is copied or boxed. A writer without WriteString gets
//	            the answer from one buffer instead (1,
//	            TestAnswerWithoutWriteStringAllocs). The PDP's
//	            Decision.Roles is the request's slice, so neither the
//	            subject nor the answer converts roles again. The Content-Type value is shared,
//	            and the latency exemplar is written into its bucket's
//	            slot in place. It was 1 while the response was a
//	            DecisionResponse moved to the heap for encoding/json (1);
//	            every row went down 1 with it. It was 17 while the trace
//	            ID's random bytes escaped (1) and the Content-Type value
//	            was built per answer (1), 15 while every observation
//	            stored a new Exemplar (1), and 14 while the PDP copied
//	            the roles (1) and the answer converted them back to
//	            []string (1)
//
// and, per case, what the PDP allocates (internal/core/allocs_test.go
// names the engine's share) and what the default telemetry adds. A
// grant that starts and closes no instance costs the engine nothing:
// its decision is a read-only entry of the engine's table of plain
// grants, which pdp.Decision.MSoD keeps; every such row was 1 more
// while that decision was an object of its own.
//
//	explain 0   the entry rides in the decision's context. The engine
//	            hands each rule over as the values it holds and the
//	            entry keeps them; their text is rendered only when
//	            GET /v1/explain serves the record. It was 1 while a
//	            context value of its own carried the entry (1), 5 while
//	            the engine rendered it: per evaluated rule the bound
//	            context's text (1), the activated roles (1) and their
//	            strings (1); the governing rule's copy (1)
//	event 0     the observer's DecisionEvent: its context's text and
//	            its roles are the request's own (pdp.Request's
//	            ContextText and RoleText), which every case spells
//	            canonically. A subject of credentials has no roles in
//	            the body, so its event converts the CVS's (1). It was 1
//	            while every event converted the roles to []string (1),
//	            2 while it rendered the context's text too (1); the
//	            default and all-on columns went down 1 with each
//
// A retained trace (every denial is one) adds nothing: the decision's
// recycled record keeps it, Keep copying the spans into the record's own
// array, and GET /v1/traces renders it only when asked. The
// description itself allocates nothing here because every case spells
// its context canonically; a caller who does not pays for the
// canonical text (1).
//
// Not counted here, because memoryWriter keeps its header map: what
// net/http spends on the answer's Content-Type on a real connection, 4
// allocations and ~770 B per answer — the header map's first group
// when the shared value is set, and Header.Clone in WriteHeader once
// Header() was called — about 8% of the bytes of a decision in the
// benchmark's shard_durable. It is net/http's floor, not ours: an answer
// with the header unset makes net/http sniff and set text/plain.
func TestServeDecisionAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const allocRuns = 200
	cases, soa := serveCases(t)
	for _, tc := range cases {
		for _, kind := range []string{"default", "bare", "all-on"} {
			t.Run(tc.name+"/"+kind, func(t *testing.T) {
				f := newServeFixture(t, tc, kind, soa)
				reqs := make([]*http.Request, 0, serveWarm+allocRuns+1)
				for len(reqs) < cap(reqs) {
					reqs = append(reqs, f.request(t))
				}
				i := 0
				one := func() {
					f.serve(reqs[i])
					i++
				}
				for i < serveWarm {
					one()
				}
				got := testing.AllocsPerRun(allocRuns, one)
				resp := f.check(t)
				switch applied := f.srv.metrics.closesApplied.Load(); {
				case tc.carry == nil:
				case isOpen(tc.carry(0)):
					if len(f.w.header[ActivationAckHeader]) == 0 || applied != 0 {
						t.Fatalf("the activation was not acknowledged, or %d closes applied", applied)
					}
				case applied != int64(i):
					t.Fatalf("%d closes applied over %d requests carrying one each", applied, i)
				}
				if kind == "all-on" {
					if _, kept := f.srv.traceRecord(resp.TraceID); !kept {
						t.Fatalf("the last decision's trace was not kept with SampleEvery 1")
					}
				}
				if got != tc.budget[kind] {
					t.Fatalf("%v allocs, budget %v", got, tc.budget[kind])
				}
			})
		}
	}
}

// BenchmarkServeDecision serves each of TestServeDecisionAllocs' rows
// on a server with msodd's default telemetry, so -benchmem reports the
// bytes of a served decision beside the allocations the test pins. The
// requests are built, and their prepares served, in batches outside the
// timer.
func BenchmarkServeDecision(b *testing.B) {
	cases, soa := serveCases(b)
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			f := newServeFixture(b, tc, "default", soa)
			buf := make([]*http.Request, 256)
			var reqs []*http.Request
			batch := func() {
				for j := range buf {
					buf[j] = f.request(b)
				}
				reqs = buf
			}
			batch()
			for _, r := range reqs[:serveWarm] {
				f.serve(r)
			}
			reqs = reqs[serveWarm:]
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if len(reqs) == 0 {
					b.StopTimer()
					batch()
					b.StartTimer()
				}
				f.serve(reqs[0])
				reqs = reqs[1:]
			}
			b.StopTimer()
			f.check(b)
		})
	}
}

// serveCase is one row of TestServeDecisionAllocs.
type serveCase struct {
	name    string
	policy  string                       // the shard's policy XML: bankPolicyXML when empty
	prepare func(i int) *DecisionRequest // served first, to bring instance i into the starting state
	request func(i int) DecisionRequest
	// handoff serves the case on a shard run with -handoff, as every
	// shard behind a gateway is; carry, when set, is the CloseHeader
	// the gateway's request i arrives with.
	handoff bool
	carry   func(i int) string
	// routed sends the request as a gateway does: under a requestID
	// (request i's own) and a traceparent.
	routed bool
	// replay sends request i twice: the second, measured, is a retry
	// the idempotency cache answers.
	replay  bool
	allowed bool
	phase   string
	budget  map[string]float64
}

// The rings are sized below the number of warm-up requests, so the
// measured requests run in the steady state of a long-lived shard.
const (
	serveRing = 32
	serveWarm = 2 * serveRing
)

// serveCases returns TestServeDecisionAllocs' rows, and the SOA that
// signed the credential row's credential.
func serveCases(tb testing.TB) ([]serveCase, *credential.Authority) {
	soa, err := credential.NewAuthority("bank.example")
	if err != nil {
		tb.Fatal(err)
	}
	now := time.Now()
	cred, err := soa.IssueRole("alice", "Teller", now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		tb.Fatal(err)
	}
	// Every row's requests are in one period, as a bank's are: its name,
	// "Branch=*, Period=p", is bound once and found in the engine's
	// names table by every later request. "MMER opening grant" opens a
	// period of its own each time, and builds its name.
	ctx := func(int) string { return "Branch=York, Period=p" }
	teller := func(user string, i int) DecisionRequest {
		return DecisionRequest{User: user, Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till", Context: ctx(i)}
	}
	// A tax process's steps are each in a process of their own.
	taxStep := func(user, role, op, target string, i int) DecisionRequest {
		return DecisionRequest{User: user, Roles: []string{role}, Operation: op, Target: target,
			Context: fmt.Sprintf("TaxOffice=Leeds, taxRefundProcess=t%d", i)}
	}
	return []serveCase{
		{
			// 6, and nothing of the engine: its decision is the shared
			// plain grant, which Decision.MSoD keeps, and it allocates
			// nothing else. It was 8 / 7 while that decision was an
			// object of its own (1), 10 / 8 while the response was
			// boxed for the encoder (1) and the event rendered the
			// context (default 1), 11 / 9 while every request built its
			// bound name (1) — every row of the table but "MMER opening
			// grant" and "RBAC deny" went down 1 with it — 13 / 10
			// while the trace, the context carrying
			// it and the one carrying the explain entry were three
			// values (every row's default and all-on went down 2, bare
			// 1), 18 / 15 while the request's five strings and
			// the minted trace ID were six, 20 / 17 while the engine
			// built a record slice for the store (1) and the store
			// copied the record's one role (1); the records go through
			// the engine's commit buffer, and the store shares one slice
			// per role name.
			name:    "MMER grant",
			prepare: func(i int) *DecisionRequest { r := teller("opener", i); return &r },
			request: func(i int) DecisionRequest { return teller("alice", i) },
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 6, "bare": 6, "all-on": 6},
		},
		{
			// 6 + the engine's three for an opening grant: the bound
			// name, which nothing bound before (1), and the store's new
			// instance and the list of its unique Period value (2). It
			// was 11 / 10 with the engine's decision (1), now the shared
			// plain grant.
			name: "MMER opening grant",
			request: func(i int) DecisionRequest {
				return DecisionRequest{User: "alice", Roles: []string{"Teller"}, Operation: "HandleCash", Target: "till",
					Context: fmt.Sprintf("Branch=York, Period=p%d", i)}
			},
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 9, "bare": 9, "all-on": 9},
		},
		{
			// The same under a requestID and a traceparent, as every
			// decision a gateway routes arrives: the requestID's text
			// joins the one string in place of the trace ID, which is
			// not minted: the traceparent's is a substring of the header.
			// It was 18 / 15 while the five strings and the requestID
			// were each their own. Claiming the requestID costs the
			// packed entry the cache keeps (1): the requestID and the
			// answer in one string of its own, so that the cache keeps
			// none of the request's text; its map and eviction ring are
			// at their steady size. It was 9 / 8 with the engine's
			// decision (1), now the shared plain grant, 11 / 9 while the response was
			// boxed for the encoder (1) and the event rendered the
			// context (default 1), 10 / 8 while the cache kept
			// the response the encoder is handed, and with it the
			// request's one string, 26 while the claim was an entry and
			// a channel (2) beside the response boxed for the encoder,
			// and the Content-Type value was built per answer (1).
			name:    "MMER grant under a requestID",
			prepare: func(i int) *DecisionRequest { r := teller("opener", i); return &r },
			request: func(i int) DecisionRequest { return teller("alice", i) },
			routed:  true,
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 7, "bare": 7, "all-on": 7},
		},
		{
			// A retry of that grant under its requestID, answered from the
			// idempotency cache: decode 3, and nothing else. The claim
			// comes before the parse stage, so the replay parses no
			// context and converts no roles; it was 5 while it did both
			// (2). The requestID has the gateway's form, so the cache
			// looks it up by its 16 bytes, which costs nothing, and
			// writeAnswer writes the replay from the cached entry, as it
			// wrote the first answer from the decision. It was 9
			// while the packed answer was unpacked into a
			// DecisionResponse: the Roles list (1), the raw trace ID
			// rendered by hex.EncodeToString (2) and the response boxed
			// for the encoder (1).
			name:    "idempotent replay",
			prepare: func(i int) *DecisionRequest { r := teller("opener", i); return &r },
			request: func(i int) DecisionRequest { return teller("alice", i) },
			routed:  true, replay: true,
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 3, "bare": 3, "all-on": 3},
		},
		{
			// The same on a shard behind a gateway, the request carrying
			// no close: looking for the header costs nothing.
			name:    "MMER grant, no close carried",
			prepare: func(i int) *DecisionRequest { r := teller("opener", i); return &r },
			request: func(i int) DecisionRequest { return teller("alice", i) },
			handoff: true,
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 6, "bare": 6, "all-on": 6},
		},
		{
			// The same, the request carrying one close — of another
			// period, which holds nothing on this shard. On top of the
			// grant's 6: the closed instance's name parsed (1), the
			// event's reason (1), and the last step's requestID cloned
			// out of the header for the applied ring (1); default adds
			// the instance's text in the purge event (1).
			name:    "MMER grant carrying one close",
			prepare: func(i int) *DecisionRequest { r := teller("opener", i); return &r },
			request: func(i int) DecisionRequest { return teller("alice", i) },
			handoff: true,
			carry: func(i int) string {
				entry, _ := EncodeClose(fmt.Sprintf("%032x", i), []string{fmt.Sprintf("Branch=*, Period=closed%d", i)})
				return entry
			},
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 10, "bare": 9, "all-on": 10},
		},
		{
			// The same, the request carrying one activation — of another
			// period, not running on this shard. On top of the grant's
			// 6: the instance's name parsed (1), the encoded
			// activation adi.OpActivate hands Append (1), the
			// instance-table entry and its slot in a component list (2),
			// and the first step's requestID cloned out of the header for
			// the applied ring (1); default adds the instance's text in the
			// activate event (1). The acknowledgement is a shared value
			// (the writer here keeps its header map, so its map slot is
			// not counted).
			name:    "MMER grant carrying one activation",
			prepare: func(i int) *DecisionRequest { r := teller("opener", i); return &r },
			request: func(i int) DecisionRequest { return teller("alice", i) },
			handoff: true,
			carry: func(i int) string {
				entry, _ := EncodeActivation(fmt.Sprintf("%032x", i), []string{fmt.Sprintf("Branch=York, Period=opened%d", i)})
				return entry
			},
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 12, "bare": 11, "all-on": 12},
		},
		{
			// A tax process's last step by the clerk who prepared its
			// check, each in a process of its own: MMEP[0] refuses it,
			// and "TaxOffice=!, taxRefundProcess=!" binds no names
			// table, so no denial shares it. 6 + the engine's decision
			// with its Denial beside it (1) and the denial's one text
			// (1): Denial.Error, rendered once per decision — for the
			// stream event where there is an observer, which
			// Decision.Reason() then returns, else by Reason() itself
			// when describe asks; the answer writes the description's.
			// Its engine-built text, which quoted the user, was the same
			// one allocation. It was 9 / 8 while the event converted the
			// roles (default 1), 11 / 9 while the response was boxed for
			// the encoder (1) and the event rendered the context
			// (default 1), 12 / 10 while Decision.MSoD was the PDP's
			// heap copy of the engine's decision (1) and the Denial
			// apart (1), 20 / 17 while the request's strings and the
			// trace ID were apart, 25 / 22 while the roles were copied
			// and converted back (2) and Denial.Error rendered the
			// policy context's text, the bound context's and the
			// sentence again (3). The row denied a bank teller turned
			// auditor in one period until every such denial was the
			// period's shared one: "MMER deny, repeated in its period".
			name:   "MSoD deny",
			policy: taxPolicyXML,
			prepare: func(i int) *DecisionRequest {
				r := taxStep("c1", "Clerk", "prepareCheck", "http://www.myTaxOffice.com/Check", i)
				return &r
			},
			request: func(i int) DecisionRequest {
				return taxStep("c1", "Clerk", "confirmCheck", "http://secret.location.com/audit", i)
			},
			allowed: false, phase: "msod",
			budget: map[string]float64{"default": 8, "bare": 8, "all-on": 8},
		},
		{
			// A bank teller turned auditor in the period, as a bank's
			// conflicting requests are: 6, and nothing of the engine.
			// Its decision is the period's shared denial (core's
			// boundSlot.share), and the reason is the text its first
			// reader rendered for it, once. The period's first denial
			// boxed the shared one (1), and its first reading rendered
			// the text (1); the warm-up requests take both. It was 9 / 8 while every
			// denial was an object of its own (1) with its own text
			// (1) and the event converted the roles (default 1).
			name:    "MMER deny, repeated in its period",
			prepare: func(i int) *DecisionRequest { r := teller("alice", i); return &r },
			request: func(i int) DecisionRequest {
				return DecisionRequest{User: "alice", Roles: []string{"Auditor"}, Operation: "Audit", Target: "ledger", Context: ctx(i)}
			},
			allowed: false, phase: "msod",
			budget: map[string]float64{"default": 6, "bare": 6, "all-on": 6},
		},
		{
			// 6: the reason is a constant. It was 9 / 7 while the
			// response was boxed for the encoder (1) and the event
			// rendered the context (default 1), 10 / 8 while the reason
			// was a concatenation naming the permission (1), 17 / 14
			// while the request's strings and the trace ID were apart,
			// 21 / 18 while the roles were copied and converted back (2) and
			// the reason was Sprintf's: the permission boxed (1), its
			// text (1), the sentence (1).
			name: "RBAC deny",
			request: func(i int) DecisionRequest {
				return DecisionRequest{User: "alice", Roles: []string{"Teller"}, Operation: "Audit", Target: "ledger", Context: ctx(i)}
			},
			allowed: false, phase: "rbac",
			budget: map[string]float64{"default": 6, "bare": 6, "all-on": 6},
		},
		{
			// A tax process's first step, each in a process of its
			// own, as gateway_tax's shards open one on 1 decision in 5.
			// 6 + the engine's decision with Activated()'s one name
			// beside it (1) and the store's new instance and the list of
			// its unique process value (2); the answer writes the name
			// from the decision, component by component. It was 14 / 12
			// while the answer's Activated was a slice (1) of the name's
			// text (1) beside the response boxed for the encoder (1),
			// and the event rendered the context (default 1), 15 / 13
			// while Decision.MSoD was the PDP's heap copy of the
			// engine's decision (1) beside the name's slice (1).
			name:   "FirstStep grant",
			policy: taxPolicyXML,
			request: func(i int) DecisionRequest {
				return taxStep("c1", "Clerk", "prepareCheck", "http://www.myTaxOffice.com/Check", i)
			},
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 9, "bare": 9, "all-on": 9},
		},
		{
			// The process's last step, by another clerk, after its
			// first step opened it. 6 + the engine's decision with
			// Closed()'s one name beside it (1), which the answer writes
			// and the explain entry keeps as it is. The purge allocates
			// nothing. It was 12 / 10 while the answer's Closed was a
			// slice (1) of the name's text (1) beside the response boxed
			// for the encoder (1), and the event rendered the context
			// (default 1), 13 / 11 while Decision.MSoD was the PDP's
			// heap copy (1) beside the name's slice (1).
			name:   "LastStep grant",
			policy: taxPolicyXML,
			prepare: func(i int) *DecisionRequest {
				r := taxStep("c1", "Clerk", "prepareCheck", "http://www.myTaxOffice.com/Check", i)
				return &r
			},
			request: func(i int) DecisionRequest {
				return taxStep("c2", "Clerk", "confirmCheck", "http://secret.location.com/audit", i)
			},
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 7, "bare": 7, "all-on": 7},
		},
		{
			// No user or roles in the body but one signed credential, so
			// decode is 5 — the body (1), the one string (1), now holding
			// the text of three members, the credential's holder and
			// issuer and its attribute's type and value beside the
			// minted trace ID, and the credentials array read by hand
			// (3: the slice, its attribute slice, the signature). It was
			// 11 while the seven strings were each their own (6), 19
			// while encoding/json decoded the array (the slice header it
			// decodes through, its decodeState, a parse stack three deep
			// under the array, its error context), 21 with the
			// DecisionRequest on the heap and the stack one level
			// deeper. Then request 2 (no Roles to convert) and respond
			// 0, the answer and the explain entry writing and keeping the
			// CVS's roles as they are: 7. It was 9 while the answer
			// converted them to []string (1) beside the response boxed
			// for the encoder (1). The CVS adds 1, the validated
			// roles: the signed payload is built on the stack and
			// verified there, and no rejection map is made for a
			// credential that passes. It added 6 while json.Marshal
			// re-marshalled the payload for the Ed25519 check
			// (credential boxed, two time texts, the result: 4) and
			// every call made the map (1). Then nothing of the engine:
			// its decision is the shared plain grant. It was 10 / 9 while
			// that decision was an object of its own (1), 14 / 12 with
			// the bound name (1), 23 / 20 with the
			// request's strings and the trace ID apart, 36 / 33 through
			// encoding/json and json.Marshal, 38 / 35 with the engine's
			// record slice and the store's Roles copy (2), 13 / 11 with
			// respond's 2 and the event's context text (default 1).
			// Default: + event 1, the CVS's roles as []string.
			name:    "credential-bearing grant",
			prepare: func(i int) *DecisionRequest { r := teller("opener", i); return &r },
			request: func(i int) DecisionRequest {
				return DecisionRequest{Credentials: []credential.Credential{cred}, Operation: "HandleCash", Target: "till", Context: ctx(i)}
			},
			allowed: true, phase: "granted",
			budget: map[string]float64{"default": 9, "bare": 8, "all-on": 9},
		},
	}, soa
}

// serveFixture is one row served by one kind of TestServeDecisionAllocs'
// servers over a memory ADI, its responses written into memory.
type serveFixture struct {
	tc  serveCase
	srv *Server
	w   *memoryWriter
	i   int // requests built
}

func newServeFixture(tb testing.TB, tc serveCase, kind string, soa *credential.Authority) *serveFixture {
	policyXML := tc.policy
	if policyXML == "" {
		policyXML = bankPolicyXML
	}
	pol, err := policy.ParseRBACPolicy([]byte(policyXML))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := pdp.Config{Policy: pol}
	opts := []Option{WithExplainCapacity(-1)}
	if kind != "bare" {
		broker := inspect.NewBroker(serveRing)
		cfg.Observer = func(ev inspect.DecisionEvent) { broker.Publish(ev) }
		traces := trace.Config{}
		if kind == "all-on" {
			traces.SampleEvery = 1
			sub := broker.Subscribe(inspect.Filter{}, 0)
			drained := make(chan int)
			go func() {
				n := 0
				for range sub.Events() {
					n++
				}
				drained <- n
			}()
			tb.Cleanup(func() {
				broker.Unsubscribe(sub)
				if n := <-drained; n == 0 {
					tb.Error("the subscriber received no event")
				}
			})
		}
		opts = []Option{
			WithEventBroker(broker),
			WithExplainCapacity(serveRing),
			WithTraceStore(trace.NewStore(traces)),
		}
	}
	if tc.handoff {
		opts = append(opts, WithHandoff())
	}
	p, err := pdp.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.TrustAuthority(soa); err != nil {
		tb.Fatal(err)
	}
	return &serveFixture{tc: tc, srv: New(p, opts...), w: &memoryWriter{header: http.Header{}}}
}

// request serves the next request's prepare, if the row has one, and
// returns the request built as the row sends it.
func (f *serveFixture) request(tb testing.TB) *http.Request {
	i := f.i
	f.i++
	if f.tc.prepare != nil {
		f.serve(f.post(tb, *f.tc.prepare(i)))
		if resp := f.answer(tb); !resp.Allowed {
			tb.Fatalf("prepare %d: %+v", i, resp)
		}
	}
	req := f.tc.request(i)
	if f.tc.routed {
		req.RequestID = fmt.Sprintf("%032x", i)
	}
	send := func() *http.Request {
		r := f.post(tb, req)
		if f.tc.routed {
			r.Header.Set(obsv.TraceparentHeader, obsv.NewTraceparent())
		}
		if f.tc.carry != nil {
			r.Header[CloseHeader] = []string{f.tc.carry(i)}
		}
		return r
	}
	if f.tc.replay {
		f.serve(send())
		if resp := f.answer(tb); resp.Allowed != f.tc.allowed {
			tb.Fatalf("request %d before its replay: %+v", i, resp)
		}
	}
	return send()
}

func (f *serveFixture) post(tb testing.TB, req DecisionRequest) *http.Request {
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := http.NewRequest(http.MethodPost, DecisionPath, bytes.NewReader(b))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// serve serves r into the reused writer.
func (f *serveFixture) serve(r *http.Request) {
	f.w.body.Reset()
	f.srv.ServeHTTP(f.w, r)
}

// answer decodes the last response, which must be a 200.
func (f *serveFixture) answer(tb testing.TB) DecisionResponse {
	var resp DecisionResponse
	if err := json.Unmarshal(f.w.body.Bytes(), &resp); err != nil || f.w.status != http.StatusOK {
		tb.Fatalf("status %d, %v: %s", f.w.status, err, f.w.body.Bytes())
	}
	return resp
}

// check holds the last response to the row's outcome.
func (f *serveFixture) check(tb testing.TB) DecisionResponse {
	resp := f.answer(tb)
	if resp.Allowed != f.tc.allowed || resp.Phase != f.tc.phase {
		tb.Fatalf("answer %+v; want allowed=%v phase=%s", resp, f.tc.allowed, f.tc.phase)
	}
	return resp
}

// TestServeActivationAllocs is the budget of one POST /v1/ctx/activation
// naming one instance not yet running — what a gateway's FirstStep
// fan-out costs each peer — on a shard with the event broker fed by the
// PDP's observer ("default", as msodd runs) and without ("bare"):
//
//	decode 9    the request moved to the heap for Unmarshal (1), the body
//	            (1), encoding/json's decodeState, object state and parse
//	            stack (5), the Contexts slice and its string (2)
//	activate 5  the parsed name (1), the ops slice (1), the encoded
//	            activation Append is handed (1), the instance-table entry
//	            (1) and its slot in a component list (1)
//	respond 1   the answer boxed for the encoder (1); the Content-Type
//	            value is shared
//	event 1     default only: the instance's text in the activate event
//	            the stream tells the activation by (pdp.PDP.Apply)
func TestServeActivationAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const allocRuns = 200
	pol, err := policy.ParseRBACPolicy([]byte(bankPolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	for kind, budget := range map[string]float64{"default": 16, "bare": 15} {
		t.Run(kind, func(t *testing.T) {
			cfg := pdp.Config{Policy: pol}
			var opts []Option
			if kind == "default" {
				broker := inspect.NewBroker(32)
				cfg.Observer = func(ev inspect.DecisionEvent) { broker.Publish(ev) }
				opts = append(opts, WithEventBroker(broker))
			}
			p, err := pdp.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := New(p, opts...)
			w := &memoryWriter{header: http.Header{}}
			reqs := make([]*http.Request, 2*allocRuns+1)
			for i := range reqs {
				b, err := json.Marshal(ActivationRequest{Contexts: []string{fmt.Sprintf("Branch=York, Period=p%d", i)}})
				if err != nil {
					t.Fatal(err)
				}
				if reqs[i], err = http.NewRequest(http.MethodPost, ActivationPath, bytes.NewReader(b)); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			one := func() {
				w.body.Reset()
				srv.ServeHTTP(w, reqs[i])
				i++
			}
			for i < allocRuns {
				one()
			}
			got := testing.AllocsPerRun(allocRuns, one)
			var resp ActivationResponse
			if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil || w.status != http.StatusOK || resp.Added != 1 {
				t.Fatalf("status %d, answer %s (%v); want one instance activated", w.status, w.body.Bytes(), err)
			}
			if got != budget {
				t.Fatalf("%v allocs, budget %v", got, budget)
			}
		})
	}
}

// TestDecisionContextSize: the one value a served decision's context,
// trace and explain entry share stays in the 384-B size class. Eight
// spans of 32 B inline are most of it; a field that pushes it past 384
// costs every decision the next class (416 B).
func TestDecisionContextSize(t *testing.T) {
	if size := reflect.TypeOf((*decisionContext)(nil)).Elem().Size(); size > 384 {
		t.Fatalf("decisionContext is %d B, past the 384-B size class", size)
	}
}
