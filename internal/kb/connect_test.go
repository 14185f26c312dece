package kb

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

// diamond builds a--b--d and a--c--d plus a direct a--d edge, all with an
// undirected label: 2 two-hop paths and 1 one-hop path between a and d.
func diamond(t *testing.T) (*Graph, NodeID, NodeID) {
	t.Helper()
	gb := NewBuilder()
	a := gb.AddNode("a", "t")
	b := gb.AddNode("b", "t")
	c := gb.AddNode("c", "t")
	d := gb.AddNode("d", "t")
	l := gb.MustLabel("r", false)
	gb.MustAddEdge(a, b, l)
	gb.MustAddEdge(b, d, l)
	gb.MustAddEdge(a, c, l)
	gb.MustAddEdge(c, d, l)
	gb.MustAddEdge(a, d, l)
	g := gb.Build()
	return g, a, d
}

func TestConnectednessCounts(t *testing.T) {
	g, a, d := diamond(t)
	// Simple paths a→d ignoring direction: the direct edge (length 1)
	// and the two two-hop routes a-b-d and a-c-d; b and c connect only
	// to a and d, so no longer simple path exists.
	cases := []struct {
		maxLen, want int
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{3, 3},
		{4, 3},
	}
	for _, tc := range cases {
		if got := g.Connectedness(a, d, tc.maxLen, -1); got != tc.want {
			t.Errorf("Connectedness(maxLen=%d) = %d, want %d", tc.maxLen, got, tc.want)
		}
	}
}

func TestConnectednessParallelLabels(t *testing.T) {
	gb := NewBuilder()
	a := gb.AddNode("a", "t")
	b := gb.AddNode("b", "t")
	l1 := gb.MustLabel("r1", true)
	l2 := gb.MustLabel("r2", false)
	gb.MustAddEdge(a, b, l1)
	gb.MustAddEdge(a, b, l2)
	g := gb.Build()
	if got := g.Connectedness(a, b, 4, -1); got != 2 {
		t.Fatalf("parallel labels should count as 2 paths, got %d", got)
	}
}

func TestConnectednessCap(t *testing.T) {
	g, a, d := diamond(t)
	if got := g.Connectedness(a, d, 4, 2); got != 2 {
		t.Fatalf("capped count = %d, want 2", got)
	}
	if got := g.Connectedness(a, d, 4, 0); got != 0 {
		t.Fatalf("cap 0 should short-circuit, got %d", got)
	}
}

func TestConnectednessSamePair(t *testing.T) {
	g, a, _ := diamond(t)
	if got := g.Connectedness(a, a, 4, -1); got != 0 {
		t.Fatalf("same-node connectedness = %d", got)
	}
}

func TestBucketThresholds(t *testing.T) {
	cases := []struct {
		conn int
		want ConnBucket
	}{
		{0, ConnLow}, {30, ConnLow}, {31, ConnMedium},
		{100, ConnMedium}, {101, ConnHigh}, {5000, ConnHigh},
	}
	for _, tc := range cases {
		if got := Bucket(tc.conn); got != tc.want {
			t.Errorf("Bucket(%d) = %v, want %v", tc.conn, got, tc.want)
		}
	}
	if ConnLow.String() != "low" || ConnMedium.String() != "medium" || ConnHigh.String() != "high" {
		t.Error("bucket names")
	}
	if ConnBucket(9).String() != "unknown" {
		t.Error("unknown bucket name")
	}
}

// TestQuickConnectednessSymmetric property-checks that the simple-path
// count is symmetric in its endpoints (edges are treated undirected).
func TestQuickConnectednessSymmetric(t *testing.T) {
	f := func(seed int64, sz, x, y uint8) bool {
		nodes := int(sz%12) + 3
		g := randomGraph(seed, nodes)
		a := NodeID(int(x) % nodes)
		b := NodeID(int(y) % nodes)
		return g.Connectedness(a, b, 4, -1) == g.Connectedness(b, a, 4, -1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConnectednessMonotoneInLength property-checks that raising the
// length limit never lowers the count.
func TestQuickConnectednessMonotoneInLength(t *testing.T) {
	f := func(seed int64, sz, x, y uint8) bool {
		nodes := int(sz%12) + 3
		g := randomGraph(seed, nodes)
		a := NodeID(int(x) % nodes)
		b := NodeID(int(y) % nodes)
		prev := 0
		for l := 1; l <= 4; l++ {
			cur := g.Connectedness(a, b, l, -1)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// pollCounter reports cancellation from its cancelAt-th Err poll on.
type pollCounter struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCounter) Err() error {
	c.polls++
	if c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestPathJoinPolls holds the join to one context poll every 256
// expansions on the complete graph of 24 nodes: cancelled at its first
// poll, a join stops at its 256th expansion (in the walk at length 5, in
// the store at length 6) with context.Canceled; uncancelled, the same
// PathJoin then polls once per 256 expansions and visits every simple
// path, Σ 22!/(22−k)! over k < maxLen of them.
func TestPathJoinPolls(t *testing.T) {
	gb := NewBuilder()
	for i := 0; i < 24; i++ {
		gb.AddNode(string(rune('a'+i)), "t")
	}
	l := gb.MustLabel("u", false)
	for i := NodeID(0); i < 24; i++ {
		for j := i + 1; j < 24; j++ {
			gb.MustAddEdge(i, j, l)
		}
	}
	g := gb.Build()
	var j PathJoin
	for _, maxLen := range []int{5, 6} {
		ctx := &pollCounter{Context: context.Background(), cancelAt: 1}
		n, err := j.Paths(ctx, g, 0, 1, maxLen, func([]HalfEdge) bool { return true })
		if err != context.Canceled || n != 256 || ctx.polls != 1 {
			t.Fatalf("maxLen %d: cancelled join made %d expansions in %d polls, err %v", maxLen, n, ctx.polls, err)
		}
		ctx = &pollCounter{Context: context.Background(), cancelAt: math.MaxInt}
		paths := 0
		n, err = j.Paths(ctx, g, 0, 1, maxLen, func([]HalfEdge) bool { paths++; return true })
		if err != nil || ctx.polls != n/256 {
			t.Fatalf("maxLen %d: join polled %d times in %d expansions, err %v", maxLen, ctx.polls, n, err)
		}
		want, perm := 0, 1
		for k := 0; k < maxLen; k++ {
			want += perm
			perm *= 22 - k
		}
		if paths != want {
			t.Fatalf("maxLen %d: join visited %d paths, want %d", maxLen, paths, want)
		}
	}
}
