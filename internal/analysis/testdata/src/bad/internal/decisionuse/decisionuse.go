// Package decisionuse seeds decisionro violations: writes through a
// *core.Decision outside the engine.
package decisionuse

import "badmod/internal/core"

// Decision mimics pdp.Decision, which keeps the engine's pointer.
type Decision struct {
	Allowed bool
	MSoD    *core.Decision
}

// Mark writes the engine's shared decision in every way the analyzer
// flags.
func Mark(dec *core.Decision, pd Decision, all []*core.Decision) *int32 {
	dec.Effect = 1
	dec.Recorded += 2
	dec.Recorded++
	pd.MSoD.Recorded--
	pd.MSoD.Denial.Rule = "rewritten"
	*dec = core.Decision{}
	all[0].Effect = 1
	return &pd.MSoD.Recorded
}

// Copy changes a copy and re-points a pointer: nothing written through
// one, nothing flagged.
func Copy(dec *core.Decision, pd Decision) core.Decision {
	c := *dec
	c.Effect = 1
	c.Recorded++
	pd.MSoD = &c
	return c
}

// Unmark writes through the engine's shared denial, kept apart from the
// decision it lives in, in every way the analyzer flags.
func Unmark(dec *core.Decision, denials []*core.Denial) *string {
	d := dec.Denial
	d.Rule = "rewritten"
	d.Rule += "!"
	*d = core.Denial{}
	denials[0].Rule = "rewritten"
	return &d.Rule
}
