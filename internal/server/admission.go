package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"msod/internal/adi"
	"msod/internal/pdp"
)

// Graceful degradation under overload and storage failure. Two
// mechanisms, both fail-closed in the MSoD sense — a request the PDP
// cannot answer safely is refused, never silently granted:
//
//   - Admission control (WithAdmissionLimit) bounds concurrent
//     decision, advisory and management requests. Excess load is shed
//     with 503 + Retry-After before any PDP work happens, so the
//     requests that are admitted keep their latency instead of all
//     requests timing out together. Shed requests are transient by
//     contract: the Retry-After hint tells the PEP (and server.Client
//     honours it) to come back.
//
//   - Degraded read-only mode latches when a durable retained-ADI
//     write fails (adi.ErrWriteFailed — disk full, I/O error, failed
//     fsync). A PDP that cannot record a grant's ADI effects must not
//     keep granting: later conflicting activations would be checked
//     against an incomplete history. Once latched, decisions and
//     management are refused with 503 (no Retry-After — the condition
//     needs an operator, not a retry), while advisories,
//     introspection, metrics and health stay up so the operator can
//     inspect the wounded PDP. A restart, after the disk is fixed,
//     recovers the store and clears the mode.

// WithAdmissionLimit bounds in-flight decision, advisory and
// management requests to maxInFlight; excess requests are shed with
// 503 and a Retry-After of retryAfter (floored to one second, the
// header's granularity). maxInFlight <= 0 leaves admission unbounded.
func WithAdmissionLimit(maxInFlight int, retryAfter time.Duration) Option {
	return func(s *Server) {
		s.maxInFlight = maxInFlight
		if retryAfter < time.Second {
			retryAfter = time.Second
		}
		s.shedRetryAfter = retryAfter
	}
}

// gateCheck names a refusal a handler asks the gate for.
type gateCheck uint8

const (
	// gateAdmit sheds past the in-flight limit (503 + Retry-After); a
	// handler that passes it defers release once it is let through.
	gateAdmit gateCheck = 1 << iota
	// gateTampered refuses (503) once the fail-closed sentinel has
	// latched: a history that no longer verifies is neither answered
	// from nor handed on.
	gateTampered
	// gateReadOnly refuses (503, no Retry-After) once read-only mode
	// has latched.
	gateReadOnly
)

// gate is where a handler refuses a request for the server's own state
// rather than the request's: the checks asked for run in the order they
// are declared, and the first that fails writes the refusal.
func (s *Server) gate(w http.ResponseWriter, checks gateCheck) bool {
	admitted := checks&gateAdmit != 0 && s.maxInFlight > 0
	full := admitted && s.inFlight.Add(1) > int64(s.maxInFlight)
	switch {
	case full:
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(s.shedRetryAfter/time.Second)))
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{"server at capacity; request shed, retry after the hinted delay"})
	case checks&gateTampered != 0 && s.sentinel != nil && s.sentinelFailClosed && s.sentinel.Tampered():
		s.metrics.sentinelRefusals.Add(1)
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{"audit chain tamper detected; refusing decisions (fail-closed)"})
	case checks&gateReadOnly != 0 && s.degraded.Load():
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{"PDP degraded to read-only: a durable retained-ADI write failed; decisions and management are refused until the store is repaired and the daemon restarted (advisories and introspection still served)"})
	default:
		return true
	}
	if admitted {
		s.release()
	}
	return false
}

// release frees the slot gateAdmit claimed.
func (s *Server) release() {
	if s.maxInFlight > 0 {
		s.inFlight.Add(-1)
	}
}

// failureStatus is the status a PDP error is answered with: 400 for a
// request that names no subject; 421 for one that resolves to a subject
// other than the one it was routed on; 503 for a failed durable write,
// which also latches read-only mode — the request committed nothing (a
// store write is atomic) and the gate refuses the ones after it;
// otherwise the handler's fallback.
func (s *Server) failureStatus(err error, fallback int) int {
	switch {
	case errors.Is(err, pdp.ErrNoSubject):
		return http.StatusBadRequest
	case errors.Is(err, pdp.ErrMisrouted):
		return http.StatusMisdirectedRequest
	case s.noteWriteFailure(err):
		return http.StatusServiceUnavailable
	}
	return fallback
}

// noteWriteFailure latches degraded read-only mode when err is (or
// wraps) a durable-store write failure, reporting whether it did.
func (s *Server) noteWriteFailure(err error) bool {
	if !errors.Is(err, adi.ErrWriteFailed) {
		return false
	}
	if s.degraded.CompareAndSwap(false, true) && s.log != nil {
		s.log.Error("durable retained-ADI write failed; latching degraded read-only mode",
			"error", err.Error())
	}
	return true
}

// applyOps runs ops through the PDP's one entry for changes that are
// not decisions and reports whether all of them applied. When not, it
// has answered: 501 for a store without the surface, 503 for anything
// else (a failed durable write latches read-only mode).
func (s *Server) applyOps(w http.ResponseWriter, what, reason string, ops []adi.Op) (adi.Effect, bool) {
	eff, err := s.backend.Load().pdp.Apply(reason, ops...)
	switch {
	case err == nil:
		return eff, true
	case errors.Is(err, adi.ErrUnsupported):
		writeJSON(w, http.StatusNotImplemented, errorResponse{fmt.Sprintf("%s unsupported: %v", what, err)})
	default:
		s.noteWriteFailure(err)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{fmt.Sprintf("%s failed: %v", what, err)})
	}
	return eff, false
}

// Degraded reports whether the server has latched read-only mode.
func (s *Server) Degraded() bool { return s.degraded.Load() }
