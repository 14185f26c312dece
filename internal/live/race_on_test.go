//go:build race

package live

// raceEnabled lets the long differentials shrink under the race
// detector, which slows every graph rebuild they check against tenfold.
const raceEnabled = true
