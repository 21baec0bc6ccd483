//go:build race

package store

// raceEnabled: the race detector's instrumentation allocates, so allocation
// ceilings are not checked under it.
const raceEnabled = true
