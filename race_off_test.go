//go:build !race

package mergesum_test

const raceEnabled = false
