//go:build race

// Package race reports whether the race detector is compiled in. The
// allocation-budget tests skip themselves under it: the detector's
// instrumentation allocates, so testing.AllocsPerRun counts differ.
package race

// Enabled is true in a -race build.
const Enabled = true
