// Package audit implements the tamper-evident secure audit trail of
// §5.2: every access control decision request and response is logged to
// append-only, HMAC-chained trail segments in stable storage, and at
// start-up the PDP replays the last n trails from time t to reconstruct
// its retained ADI according to its current MSoD policy set.
//
// The paper uses the PKI-based secure audit web service of [5]; this
// package substitutes a local SHA-256/HMAC hash chain with the same
// property the PDP relies on: any modification, reordering, truncation
// or deletion inside a segment is detected at read time.
package audit

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"strconv"
	"time"

	"msod/internal/jsonx"
)

// Effect mirrors the decision outcome in a log entry.
const (
	EffectGrant = "grant"
	EffectDeny  = "deny"
)

// Event is one logged decision: the full request quintuple (§4.1) plus
// the outcome. String fields keep the wire format self-contained.
type Event struct {
	// Seq is the global sequence number across all segments (1-based).
	Seq uint64 `json:"seq"`
	// Time is the decision time.
	Time time.Time `json:"time"`
	// User, Roles, Operation, Target and Context echo the request.
	User      string   `json:"user"`
	Roles     []string `json:"roles,omitempty"`
	Operation string   `json:"op"`
	Target    string   `json:"target"`
	Context   string   `json:"ctx"`
	// Effect is EffectGrant or EffectDeny.
	Effect string `json:"effect"`
	// MatchedPolicies is how many MSoD policies matched the request; 0
	// means the decision did not involve MSoD.
	MatchedPolicies int `json:"matched,omitempty"`
	// TraceID correlates this record with the gateway log line and
	// DecisionResponse of the request that produced it (empty for
	// untraced decisions). It is part of the event JSON, so the HMAC
	// chain covers it: a tampered correlation fails verification like
	// any other field.
	TraceID string `json:"trace,omitempty"`
}

// entry is the on-disk line as the verifiers read it: the event's JSON
// exactly as the writer encoded it — the bytes the chain MAC covers —
// and the MAC. (Verifying a re-marshal of the parsed event instead would
// refuse a trail the writer itself produced whenever the two encodings
// differ: an invalid UTF-8 byte is written as the escape \ufffd and
// re-marshalled as the character.) The writer assembles the line by hand
// around the event's JSON: appendEvent, then appendEntry.
type entry struct {
	Event json.RawMessage `json:"event"`
	MAC   string          `json:"mac"`
}

// appendEvent appends the event's JSON to dst: byte for byte what
// json.Marshal(ev) gives, errors included (FuzzAppendEvent compares
// them). On an error — a time JSON cannot spell — dst is returned
// unchanged.
func appendEvent(dst []byte, ev *Event) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"time":`...)
	dst, err := jsonx.AppendTime(dst, ev.Time)
	if err != nil {
		return dst[:n0], jsonx.FieldError("time.Time", err)
	}
	dst = append(dst, `,"user":`...)
	dst = jsonx.AppendString(dst, ev.User)
	if len(ev.Roles) > 0 {
		dst = append(dst, `,"roles":[`...)
		for i, role := range ev.Roles {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonx.AppendString(dst, role)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"op":`...)
	dst = jsonx.AppendString(dst, ev.Operation)
	dst = append(dst, `,"target":`...)
	dst = jsonx.AppendString(dst, ev.Target)
	dst = append(dst, `,"ctx":`...)
	dst = jsonx.AppendString(dst, ev.Context)
	dst = append(dst, `,"effect":`...)
	dst = jsonx.AppendString(dst, ev.Effect)
	if ev.MatchedPolicies != 0 {
		dst = append(dst, `,"matched":`...)
		dst = strconv.AppendInt(dst, int64(ev.MatchedPolicies), 10)
	}
	if ev.TraceID != "" {
		dst = append(dst, `,"trace":`...)
		dst = jsonx.AppendString(dst, ev.TraceID)
	}
	return append(dst, '}'), nil
}

// appendEntry appends the on-disk line of an entry to dst, given the
// event's own JSON and its chain MAC: byte for byte what json.Marshal
// of struct{Event Event "event"; MAC string "mac"} gives, plus the
// newline. Hex needs no JSON escaping.
func appendEntry(dst, payload, mac []byte) []byte {
	dst = append(dst, `{"event":`...)
	dst = append(dst, payload...)
	dst = append(dst, `,"mac":"`...)
	dst = hex.AppendEncode(dst, mac)
	return append(dst, "\"}\n"...)
}

// Errors returned by verification.
var (
	// ErrTampered is returned when a segment fails chain verification.
	ErrTampered = errors.New("audit: trail tampered")
	// ErrBadSequence is returned when entries are not contiguous.
	ErrBadSequence = errors.New("audit: sequence gap")
	// ErrTruncated is returned when the newest segment ends with a
	// partial entry (no terminating newline): a torn write from a crash,
	// reported distinctly from deliberate tampering because the chain up
	// to the last complete entry is intact and recovery can resume from
	// there (NewWriter does so automatically).
	ErrTruncated = errors.New("audit: trail truncated mid-entry")
)

// newChain returns the keyed hash a writer or verifier owns for its
// lifetime: HMAC-SHA256 under the trail key, Reset between entries
// (after the first Reset the keyed state is restored, not recomputed,
// and nothing is allocated).
func newChain(key []byte) hash.Hash { return hmac.New(sha256.New, key) }

// chainMAC computes the entry MAC, HMAC-SHA256(key, prevMAC || payload)
// with payload the canonical event JSON, appended to sum[:0]. The
// previous MAC links entries into a chain; the first entry of a trail
// chains from the genesis value. sum may share prevMAC's array: prevMAC
// is consumed before sum is written.
func chainMAC(h hash.Hash, prevMAC, payload, sum []byte) []byte {
	h.Reset()
	h.Write(prevMAC)
	h.Write(payload)
	return h.Sum(sum[:0])
}

// genesisMAC is the chain seed for sequence 1, derived from the key so
// two trails with different keys cannot be spliced.
func genesisMAC(h hash.Hash) []byte {
	return chainMAC(h, nil, []byte("msod-audit-genesis"), nil)
}
