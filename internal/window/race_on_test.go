//go:build race

package window

// raceEnabled lets the allocation pins skip themselves: under the race
// detector sync.Pool drops a quarter of all Puts, so pooled scratch
// summaries are sometimes made anew and an allocation count pins
// nothing.
const raceEnabled = true
