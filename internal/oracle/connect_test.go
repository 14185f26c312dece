package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"rex/internal/kb"
)

// connGraph is a small graph with the shapes Connectedness's join has to
// get right: hub, a node whose two-hop frontier dwarfs every other's;
// leaf, adjacent to hub by three parallel edges (two directed labels, one
// of them in both orientations, and an undirected one); and random edges
// over the rest, each of a directed or an undirected label, which also
// land in parallel now and then.
func connGraph(seed int64, nodes int) *kb.Graph {
	rng := rand.New(rand.NewSource(seed))
	gb := kb.NewBuilder()
	ids := make([]kb.NodeID, nodes)
	for i := range ids {
		ids[i] = gb.AddNode(fmt.Sprintf("n%d", i), "t")
	}
	dir, dir2 := gb.MustLabel("d", true), gb.MustLabel("d2", true)
	undir := gb.MustLabel("u", false)
	labels := []kb.LabelID{dir, dir2, undir}
	hub, leaf := ids[0], ids[1]
	gb.MustAddEdge(hub, leaf, dir)
	gb.MustAddEdge(leaf, hub, dir)
	gb.MustAddEdge(hub, leaf, undir)
	for _, id := range ids[2:] {
		if rng.Intn(3) > 0 {
			gb.MustAddEdge(hub, id, labels[rng.Intn(len(labels))])
		}
	}
	for i := 0; i < 2*nodes; i++ {
		from, to := ids[rng.Intn(nodes)], ids[rng.Intn(nodes)]
		if from != to {
			gb.AddEdge(from, to, labels[rng.Intn(len(labels))])
		}
	}
	return gb.Build()
}

// frontier is the two-hop frontier Connectedness picks its stored side
// by: Σ deg over a node's neighbours.
func frontier(g *kb.Graph, id kb.NodeID) int {
	n := 0
	for _, he := range g.Neighbors(id) {
		n += g.Degree(he.To)
	}
	return n
}

// TestConnectednessMatchesPathEnumNaive holds kb.Graph.Connectedness to
// the strawman walk it replaced: for every ordered pair of a few small
// graphs, at every length limit from 1 to 6 (so both split shapes, ⌈l/2⌉
// = ⌊l/2⌋ and ⌈l/2⌉ = ⌊l/2⌋+1, are joined) and every cap, the count in
// either argument order is min(len(PathEnumNaive), cap), or the whole
// count when the cap is negative.
func TestConnectednessMatchesPathEnumNaive(t *testing.T) {
	caps := []int{-1, 0, 1, 2, 31, 101}
	var parallel, largerStart, overCap int
	for seed := int64(1); seed <= 8; seed++ {
		g := connGraph(seed, 11)
		n := kb.NodeID(g.NumNodes())
		for s := kb.NodeID(0); s < n; s++ {
			for e := kb.NodeID(0); e < n; e++ {
				for maxLen := 1; maxLen <= 6; maxLen++ {
					want := len(PathEnumNaive(g, s, e, maxLen))
					switch {
					case maxLen == 1 && want > 1:
						parallel++
					case want > 101:
						overCap++
					}
					if want > 0 && frontier(g, s) > frontier(g, e) {
						largerStart++
					}
					for _, c := range caps {
						w := want
						if c >= 0 {
							w = min(want, c)
						}
						if got := g.Connectedness(s, e, maxLen, c); got != w {
							t.Fatalf("seed %d: Connectedness(%d, %d, %d, %d) = %d, PathEnumNaive lists %d", seed, s, e, maxLen, c, got, want)
						}
						if got := g.Connectedness(e, s, maxLen, c); got != w {
							t.Fatalf("seed %d: Connectedness(%d, %d, %d, %d) = %d, PathEnumNaive(%d, %d) lists %d", seed, e, s, maxLen, c, got, s, e, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d adjacent pairs with parallel edges, %d counts with the larger frontier at the start, %d past the largest cap", parallel, largerStart, overCap)
	// The shapes the graphs are built for must have been reached.
	if parallel == 0 || largerStart == 0 || overCap == 0 {
		t.Fatal("a shape the graphs are built for was not reached")
	}
}
