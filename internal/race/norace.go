//go:build !race

package race

// Enabled is true in a -race build.
const Enabled = false
