//go:build !race

package live

// See race_on_test.go.
const raceEnabled = false
