//go:build race

package serve

// raceEnabled lets alloc-count tests skip themselves: under the race
// detector sync.Pool randomly drops a quarter of Put calls, so pool-miss
// allocations show up in AllocsPerRun no matter how allocation-free the
// steady state really is.
const raceEnabled = true
