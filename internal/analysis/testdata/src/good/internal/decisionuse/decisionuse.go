// Package decisionuse reads the engine's decisions as the PDP does:
// a caller that wants a changed decision copies it first.
package decisionuse

import "goodmod/internal/core"

// Decision mimics pdp.Decision, which keeps the engine's pointer.
type Decision struct {
	Allowed bool
	MSoD    *core.Decision
}

// Event copies the engine's decision before it changes it, as
// pdp.event does.
func Event(pd Decision) core.Decision {
	var cd core.Decision
	if pd.MSoD != nil {
		cd = *pd.MSoD
	}
	cd.Effect = 1
	cd.Recorded++
	return cd
}

// Repoint sets the pointer to another decision: no write through it.
func Repoint(pd *Decision, other *core.Decision) {
	pd.MSoD = other
}

// Reword copies the engine's denial before it changes it, and
// re-points a pointer to the copy: nothing written through one.
func Reword(pd Decision) core.Denial {
	d := *pd.MSoD.Denial
	d.Rule = "reworded"
	denial := pd.MSoD.Denial
	denial = &d
	return *denial
}
