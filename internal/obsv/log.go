package obsv

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// NewLogger builds the JSON structured logger both daemons use: one
// object per line on w, every record carrying the component name.
func NewLogger(w io.Writer, component string) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil)).With(slog.String("component", component))
}

// PrefixBytes bounds a string a request supplies — a user, a target, a
// context, an error that quotes one — where a log line or an error
// message carries it: whole, it is as long as the request body allows,
// and so would the line be.
const PrefixBytes = 128

// Prefix returns s's first PrefixBytes bytes as valid UTF-8: s itself
// when it is no longer.
func Prefix(s string) string {
	if len(s) <= PrefixBytes {
		return s
	}
	return strings.ToValidUTF8(s[:PrefixBytes], "")
}

// AppendBounded appends the attribute key with Prefix(s) and, when that
// cut s, key+"Bytes" with s's length.
func AppendBounded(attrs []slog.Attr, key, s string) []slog.Attr {
	attrs = append(attrs, slog.String(key, Prefix(s)))
	if len(s) > PrefixBytes {
		attrs = append(attrs, slog.Int(key+"Bytes", len(s)))
	}
	return attrs
}

// SpanAttrs renders a trace's span breakdown (AppendSpans) as one slog
// group attr: span name → seconds (durations of same-named spans
// summed). It is the "where did the time go" payload of a
// slow-decision log line.
func SpanAttrs(spans []Span) slog.Attr {
	sums := make(map[string]float64)
	var order []string
	for _, s := range spans {
		if _, seen := sums[s.Name]; !seen {
			order = append(order, s.Name)
		}
		sums[s.Name] += s.Duration.Seconds()
	}
	attrs := make([]any, 0, len(order))
	for _, name := range order {
		attrs = append(attrs, slog.Float64(name, sums[name]))
	}
	return slog.Group("spans", attrs...)
}

// PprofHandler returns the net/http/pprof index and profile endpoints
// under /debug/pprof/ — the opt-in profiling listener both daemons
// mount behind their -pprof flag. It is deliberately a separate
// handler (own listener, never the decision port): profiling
// endpoints can stall and leak internals, so exposure stays an
// explicit operator decision.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// SanitizePprofAddr resolves the listen address for a -pprof flag
// under the loopback-by-default policy: a bare port (":6060") binds
// 127.0.0.1, and a non-loopback host is an error unless the operator
// passed the explicit allow-remote opt-in. The returned warn flag tells
// the caller to log that profiling internals are network-exposed.
// Profiling endpoints leak memory contents and can stall the process,
// so reaching them from off-host must be two deliberate decisions, not
// a default.
func SanitizePprofAddr(addr string, allowRemote bool) (resolved string, warn bool, err error) {
	host, port, splitErr := net.SplitHostPort(addr)
	if splitErr != nil {
		return "", false, fmt.Errorf("pprof address %q: %w", addr, splitErr)
	}
	if host == "" {
		if allowRemote {
			return addr, true, nil // all interfaces, explicitly requested
		}
		return net.JoinHostPort("127.0.0.1", port), false, nil
	}
	loopback := host == "localhost"
	if ip := net.ParseIP(host); ip != nil {
		loopback = ip.IsLoopback()
	}
	if loopback {
		return addr, false, nil
	}
	if !allowRemote {
		return "", false, fmt.Errorf(
			"pprof address %q is not loopback; profiling endpoints expose process internals — pass the allow-remote flag to bind it anyway", addr)
	}
	return addr, true, nil
}
