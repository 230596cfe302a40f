//go:build race

package main

// raceEnabled stretches the smoke test's time limit: the race detector
// slows the servers several times over.
const raceEnabled = true
