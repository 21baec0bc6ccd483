//go:build race

// Package racetag reports whether the binary was built with the race
// detector. Its instrumentation allocates, so tests that hold an allocation
// ceiling skip the check under it.
package racetag

// Enabled is true in a -race build.
const Enabled = true
