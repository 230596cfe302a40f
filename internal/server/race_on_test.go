//go:build race

package server

// raceEnabled lets TestWriteOneAllocs skip itself: under the race
// detector sync.Pool drops a quarter of all Puts, so the pooled frame
// buffer and scratch summary are sometimes made anew and an allocation
// count pins nothing.
const raceEnabled = true
