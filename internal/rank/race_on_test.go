//go:build race

package rank

// raceEnabled lets TestRankLanes trim itself under the race detector,
// which runs the measures about fifteen times slower.
const raceEnabled = true
