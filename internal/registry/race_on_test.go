//go:build race

package registry_test

// raceEnabled lets TestDecodeMergeAllocs skip itself: under the race
// detector sync.Pool drops a quarter of all Puts, so pooled scratch is
// sometimes made anew and an allocation count pins nothing.
const raceEnabled = true
