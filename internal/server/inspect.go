package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"msod/internal/bctx"
	"msod/internal/inspect"
	"msod/internal/rbac"
)

// Introspection API paths.
const (
	// StateUsersPath serves per-user retained-ADI state; the user ID is
	// the path suffix (GET /v1/state/users/{user}).
	StateUsersPath = "/v1/state/users/"
	// StateContextsPath serves per-context state; the business context
	// pattern is the path suffix (GET /v1/state/contexts/{bc},
	// wildcards allowed).
	StateContextsPath = "/v1/state/contexts/"
	// EventsPath streams decision events as Server-Sent Events with
	// optional user/context/outcome filter parameters and a replay
	// parameter for recent history.
	EventsPath = "/v1/events"
)

// eventsHeartbeat is the SSE keep-alive comment interval.
const eventsHeartbeat = 15 * time.Second

// LastEventIDHeader is the standard SSE resume header: a client
// reconnecting to EventsPath sends the last sequence number it saw and
// the stream resumes gap-free after it — or answers 410 Gone when that
// span has left the ring, telling the client its copy of history is
// unrecoverable through the stream.
const LastEventIDHeader = "Last-Event-ID"

// WithEventBroker attaches a decision event broker: /v1/events streams
// it, and state answers gain last-trace correlation. The caller is
// responsible for feeding the broker (normally by wiring it as the
// PDP's Observer).
func WithEventBroker(b *inspect.Broker) Option {
	return func(s *Server) { s.broker = b }
}

// WithSentinel attaches an audit-chain integrity sentinel: its metric
// families join /v1/metrics, and with failClosed the server refuses
// decision and advisory requests (503) once tampering has latched
// (gateTampered).
func WithSentinel(sentinel *inspect.Sentinel, failClosed bool) Option {
	return func(s *Server) {
		s.sentinel = sentinel
		s.sentinelFailClosed = failClosed
	}
}

// handleState answers GET /v1/state/users/{user} and
// GET /v1/state/contexts/{bc} from the shard's inspector.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	in := s.backend.Load().inspector
	user, byUser := strings.CutPrefix(r.URL.Path, StateUsersPath)
	raw := strings.TrimPrefix(r.URL.Path, StateContextsPath)
	switch {
	case r.Method != http.MethodGet:
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET required"})
	case in == nil:
		writeJSON(w, http.StatusNotFound, errorResponse{"state introspection not available"})
	case byUser && user == "":
		writeJSON(w, http.StatusBadRequest, errorResponse{"user ID required: GET " + StateUsersPath + "{user}"})
	case byUser:
		writeJSON(w, http.StatusOK, in.UserState(rbac.UserID(user)))
	case raw == "":
		writeJSON(w, http.StatusBadRequest, errorResponse{"context pattern required: GET " + StateContextsPath + "{bc}"})
	default:
		pattern, err := bctx.Parse(raw)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("context: %v", err)})
			return
		}
		writeJSON(w, http.StatusOK, in.ContextState(pattern))
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET required"})
		return
	}
	if s.broker == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"event stream not enabled"})
		return
	}
	q := r.URL.Query()
	filter, err := inspect.NewFilter(q.Get("user"), q.Get("context"), q.Get("outcome"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	replay := 0
	if v := q.Get("replay"); v != "" {
		replay, err = strconv.Atoi(v)
		if err != nil || replay < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{"replay must be a non-negative integer"})
			return
		}
	}
	var sub *inspect.Subscriber
	if raw := r.Header.Get(LastEventIDHeader); raw != "" {
		after, perr := strconv.ParseUint(raw, 10, 64)
		if perr != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{LastEventIDHeader + " must be a sequence number"})
			return
		}
		sub, err = s.broker.SubscribeFrom(filter, after)
		if err != nil {
			// The span after the client's last seq has left the ring (or
			// the broker restarted): 410 Gone, not an empty stream — the
			// client must know its history has a hole it cannot stream
			// over.
			writeJSON(w, http.StatusGone, errorResponse{err.Error()})
			return
		}
	} else {
		sub = s.broker.Subscribe(filter, replay)
	}
	defer s.broker.Unsubscribe(sub)
	ServeEvents(w, r, sub.Events())
}

// ServeEvents writes events to w as a Server-Sent Events stream until
// the channel closes, the request ends or a write fails: the SSE
// headers, then one writeSSE frame per event and a keep-alive comment
// every eventsHeartbeat. The shard serves its broker subscription
// through it, the gateway its fan-in of every shard's stream.
func ServeEvents(w http.ResponseWriter, r *http.Request, events <-chan inspect.DecisionEvent) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{"streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	heartbeat := time.NewTicker(eventsHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			if !open || writeSSE(w, ev) != nil {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
		}
		flusher.Flush()
	}
}

// writeSSE emits one event in SSE framing. The "id:" line carries the
// broker sequence number so standard SSE resume (Last-Event-ID)
// works; the gateway fan-in, which merges streams with unrelated
// sequence spaces, strips it.
func writeSSE(w http.ResponseWriter, ev inspect.DecisionEvent) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if ev.Seq > 0 && ev.Shard == "" {
		_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, payload)
		return err
	}
	_, err = fmt.Fprintf(w, "data: %s\n\n", payload)
	return err
}
