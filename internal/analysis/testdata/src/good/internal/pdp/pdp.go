// Package pdp is the compliant mirror of the bad fixture: error paths
// deny, audit errors are handled, the clock is injected, and the one
// deliberate time.Now() call carries a reasoned suppression.
package pdp

import (
	"time"

	"goodmod/internal/adi"
	"goodmod/internal/audit"
)

// Decision mimics the real decision shape.
type Decision struct {
	Allowed bool
	Reason  string
}

// clock is the injected time source; referencing time.Now as a value
// is the allowed injection default.
var clock = time.Now

// Decide fails closed on the error path.
func Decide(err error) Decision {
	if err != nil {
		return Decision{Allowed: false, Reason: err.Error()}
	}
	return Decision{Allowed: true}
}

// Stamp takes time from the injected clock.
func Stamp() time.Time { return clock() }

// Telemetry demonstrates a reasoned, counted suppression.
func Telemetry() time.Time {
	return time.Now() //msod:ignore clockuse fixture telemetry: deliberately suppressed to exercise the directive path
}

// Flush handles every guarded result.
func Flush(w *audit.Writer) error {
	if err := w.Append("rec"); err != nil {
		return err
	}
	return adi.Save(nil)
}
