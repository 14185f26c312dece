package match

import (
	"context"
	"fmt"
	"math"
	"testing"

	"rex/internal/kb"
)

// TestEndCounterSaturates guards the 32-bit counter width: a count at
// the top of the range stays there instead of wrapping to zero, and the
// end it belongs to is counted as exceeding a exactly once.
func TestEndCounterSaturates(t *testing.T) {
	g := kb.New()
	id := g.AddNode("n", "t")
	c := AcquireEndCounter(g, math.MaxUint32-2, -1)
	defer c.Release()
	c.Add(id)
	c.n[id] = math.MaxUint32 - 2 // a instances so far: not above a yet
	for i := 0; i < 4; i++ {
		c.Add(id)
	}
	if c.n[id] != math.MaxUint32 {
		t.Errorf("counter = %d, want saturation at %d", c.n[id], uint32(math.MaxUint32))
	}
	if c.Exceeded() != 1 {
		t.Errorf("exceeded = %d, want 1", c.Exceeded())
	}
}

// TestEndCounterFollowsGraphGrowth is the hot-swap hazard in miniature:
// a pooled counter released after use on a small graph must cover every
// node of a larger graph when it is next acquired, and come back zeroed.
func TestEndCounterFollowsGraphGrowth(t *testing.T) {
	g := kb.New()
	first := g.AddNode("n0", "t")
	c := AcquireEndCounter(g, 0, -1)
	c.Add(first)
	c.Release()
	var last kb.NodeID
	for i := 0; i < 1000; i++ {
		last = g.AddNode(fmt.Sprintf("n%d", i+1), "t")
	}
	c = AcquireEndCounter(g, 0, 1)
	defer c.Release()
	if c.n[first] != 0 {
		t.Fatal("released counter kept a count")
	}
	if !c.Add(last) || c.Exceeded() != 1 {
		t.Fatalf("first end: exceeded %d, want 1 and not pruned", c.Exceeded())
	}
	if c.Add(first) || !c.Pruned() {
		t.Fatal("second end above a=0 must prune under limit 1")
	}
}

// TestCountByEndDenseMatchesMap checks the dense entry against the map
// entry on the pooled test pattern, and that a limit stops the search.
func TestCountByEndDenseMatchesMap(t *testing.T) {
	g, p, s, _ := poolTestPattern(t)
	want := CountByEnd(g, p, s)
	c := AcquireEndCounter(g, 0, -1)
	if err := CountByEndDense(context.Background(), g, p, s, c); err != nil {
		t.Fatal(err)
	}
	got := c.Table()
	c.Release()
	if len(got) != len(want) || len(want) < 2 {
		t.Fatalf("dense table has %d ends, map %d (need ≥ 2)", len(got), len(want))
	}
	for end, n := range want {
		if got[end] != n {
			t.Errorf("end %s: dense %d, map %d", g.NodeName(end), got[end], n)
		}
	}
	c = AcquireEndCounter(g, 0, 1)
	defer c.Release()
	if err := CountByEndDense(context.Background(), g, p, s, c); err != nil {
		t.Fatal(err)
	}
	if !c.Pruned() || len(c.touched) != 2 {
		t.Errorf("limit 1 with %d ends above 0: pruned=%v after %d ends, want a stop at the second", len(want), c.Pruned(), len(c.touched))
	}
}
