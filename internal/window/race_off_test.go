//go:build !race

package window

const raceEnabled = false
