//go:build race

package core

// raceEnabled lets the allocation tests skip themselves: under the race
// detector sync.Pool drops a quarter of all Puts, so a pooled Collapse
// is sometimes made anew and an allocation count pins nothing.
const raceEnabled = true
