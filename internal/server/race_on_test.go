//go:build race

package server

// raceEnabled lets TestWriteOneAllocs allow one more allocation per
// PUSH: under the race detector sync.Pool drops a quarter of all Puts,
// so the pooled frame buffer and scratch summary are sometimes made anew.
const raceEnabled = true
