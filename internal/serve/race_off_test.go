//go:build !race

package serve

// See race_on_test.go.
const raceEnabled = false
