// Package core mimics the engine's read-only Decision for the
// decisionro clean fixture. Its own writes are the engine's, not flagged.
package core

// Decision mimics the engine's decision shape.
type Decision struct {
	Effect   uint8
	Recorded int32
	Denial   *Denial
}

// Denial mimics the refusing constraint a denial points at.
type Denial struct{ Rule string }

// count is the engine filling in its own decision.
func (d *Decision) count(n int32) {
	d.Recorded += n
	d.Effect = 0
}
