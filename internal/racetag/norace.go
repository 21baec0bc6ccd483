//go:build !race

package racetag

// Enabled is true in a -race build.
const Enabled = false
