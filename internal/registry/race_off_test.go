//go:build !race

package registry_test

const raceEnabled = false
