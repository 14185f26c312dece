package match

import (
	"math"
	"sync"

	"rex/internal/kb"
)

// EndCounter accumulates instances per end entity in a dense array
// indexed by kb.NodeID and, while doing so, maintains the position of an
// aggregate value a in that distribution: the number of ends whose count
// strictly exceeds a. With limit ≥ 0 it reports the position pruned the
// moment it exceeds limit — the paper's "LIMIT p" (Section 5.3.2) — so
// the search feeding it can stop.
//
// Counters are pooled. The array is all-zero between uses (Release
// resets exactly the touched entries), and Acquire sizes it to the graph
// it is handed: node IDs are append-only across hot swaps, so a counter
// last used on generation n must never be indexed with generation n+1's
// IDs at generation n's length.
//
// Counts are 32 bits wide and saturate instead of wrapping; the bar a+1
// saturates with them, so positions are exact for every a below 2³²−1.
type EndCounter struct {
	n        []uint32
	touched  []kb.NodeID // ends with n > 0, in first-instance order
	bar      uint32      // a+1: the count at which an end starts to exceed a
	limit    int
	exceeded int
}

var endCounterPool = sync.Pool{New: func() any { return new(EndCounter) }}

// AcquireEndCounter takes a zeroed counter covering every node of g,
// tracking the position of a under the given limit (negative: never
// prune). The caller must Release it.
func AcquireEndCounter(g *kb.Graph, a, limit int) *EndCounter {
	c := endCounterPool.Get().(*EndCounter)
	if n := g.NumNodes(); cap(c.n) < n {
		c.n = make([]uint32, n)
	} else {
		c.n = c.n[:n]
	}
	c.bar = uint32(min(uint64(max(a, 0)), math.MaxUint32-1)) + 1
	c.limit, c.exceeded = limit, 0
	return c
}

// Release zeroes the touched entries and returns the counter to the pool.
func (c *EndCounter) Release() {
	for _, id := range c.touched {
		c.n[id] = 0
	}
	c.touched = c.touched[:0]
	endCounterPool.Put(c)
}

// AddWeighted adds m ≥ 1 to end's running sum, of which debt will be
// taken back by Settle: the end's count is sum − debt, so it exceeds a
// exactly when the sum crosses bar+debt, and — sums only grow, debt is
// fixed — the position is bumped the moment that happens. It reports
// whether counting should continue: false means the position now exceeds
// the limit.
func (c *EndCounter) AddWeighted(end kb.NodeID, m, debt uint32) bool {
	old := uint64(c.n[end])
	if old == math.MaxUint32 {
		return true // saturated: already at or above every bar
	}
	if old == 0 {
		c.touched = append(c.touched, end)
	}
	sum := old + uint64(m)
	if at := uint64(c.bar) + uint64(debt); old < at && at <= sum {
		c.exceeded++
	}
	c.n[end] = uint32(min(sum, math.MaxUint32))
	return !c.Pruned()
}

// Settle turns running sums into counts: it subtracts debt[end] from
// every touched end and forgets the ends left with no instance. The
// position is unaffected — AddWeighted already accounted for the debts.
func (c *EndCounter) Settle(debt []uint32) {
	kept := c.touched[:0]
	for _, id := range c.touched {
		if c.n[id] -= min(debt[id], c.n[id]); c.n[id] > 0 {
			kept = append(kept, id)
		}
	}
	c.touched = kept
}

// Exceeded is the position so far: ends whose count strictly exceeds a.
func (c *EndCounter) Exceeded() int { return c.exceeded }

// Pruned reports whether the position provably exceeds the limit.
func (c *EndCounter) Pruned() bool { return c.limit >= 0 && c.exceeded > c.limit }

// Table copies the counts into a fresh per-end map: the local
// distribution D_l for callers that need all of it.
func (c *EndCounter) Table() map[kb.NodeID]int {
	t := make(map[kb.NodeID]int, len(c.touched))
	for _, id := range c.touched {
		t[id] = int(c.n[id])
	}
	return t
}
