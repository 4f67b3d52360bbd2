// Package server seeds the metricname violations, beside a discarded
// bool that auditerr does not flag.
package server

import (
	"io"

	"badmod/internal/adi"
	"badmod/internal/obsv"
)

// Server mimics the HTTP facade.
type Server struct{ b *adi.Browser }

// New discards a bool result of the ADI package: auditerr guards errors only.
func New() *Server {
	s := &Server{}
	s.b, _ = adi.BrowserFor(nil)
	return s
}

// Metrics emits one family with a bad name, one from a non-constant,
// and the first of msod_shed_total's two emitters (internal/extra has
// the other).
func Metrics(w io.Writer, name string) {
	obsv.WriteCounter(w, "badly_named_total", "h", 1)
	obsv.WriteCounter(w, name, "h", 2)
	obsv.WriteGauge(w, "msod_dup", "h", 3)
	obsv.WriteCounter(w, "msod_shed_total", "h", 9)
}
