//go:build !race

package rank

// See race_on_test.go.
const raceEnabled = false
