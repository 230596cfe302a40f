//go:build race

package mergesum_test

// raceEnabled lets the allocation tests skip what they cannot pin:
// under the race detector sync.Pool drops a quarter of all Puts, so
// pooled scratch is sometimes made anew.
const raceEnabled = true
