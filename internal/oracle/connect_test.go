package oracle

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
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

// pathString spells a path from its first node as node, label and
// direction sequences.
func pathString(start kb.NodeID, steps []kb.HalfEdge) string {
	b := strconv.AppendInt(nil, int64(start), 10)
	for _, he := range steps {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(he.Label), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(he.Dir), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(he.To), 10)
	}
	return string(b)
}

// TestPathJoinMatchesPathEnumNaive holds the paths kb.PathJoin visits to
// the strawman walk's: on the graphs above and on random ones with no
// hub (randomGraph), for every ordered pair (so
// both argument orders) and every length limit from 1 to 7 (odd limits
// give the walk a deeper cap than the store), the join's paths, read
// from the first argument, are PathEnumNaive's, each once. One PathJoin
// serves every call, as a pooled one does. Both endpoints must have been
// the stored side.
func TestPathJoinMatchesPathEnumNaive(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	var j kb.PathJoin
	var storedA, storedB int
	for seed := int64(1); seed <= seeds; seed++ {
		for _, g := range []*kb.Graph{connGraph(seed, 11), randomGraph(seed, 6+int(seed))} {
			n := kb.NodeID(g.NumNodes())
			for a := kb.NodeID(0); a < n; a++ {
				for b := kb.NodeID(0); b < n; b++ {
					all := PathEnumNaive(g, a, b, 7)
					if a != b {
						if frontier(g, b) < frontier(g, a) {
							storedB++
						} else {
							storedA++
						}
					}
					for maxLen := 1; maxLen <= 7; maxLen++ {
						var want, got []string
						for _, p := range all {
							if p.Len() <= maxLen {
								want = append(want, pathString(a, p.Steps))
							}
						}
						if _, err := j.Paths(context.Background(), g, a, b, maxLen, func(steps []kb.HalfEdge) bool {
							got = append(got, pathString(a, steps))
							return true
						}); err != nil {
							t.Fatal(err)
						}
						slices.Sort(want)
						slices.Sort(got)
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d: PathJoin(%d, %d, %d) visits %d paths, PathEnumNaive lists %d, or different ones", seed, a, b, maxLen, len(got), len(want))
						}
					}
				}
			}
		}
	}
	t.Logf("the join stored the first endpoint for %d ordered pairs and the second for %d", storedA, storedB)
	if storedA == 0 || storedB == 0 {
		t.Fatal("one endpoint was never the stored side")
	}
}

// randomGraph is a graph of uniformly random edges, each of a directed or
// an undirected label, with no hub.
func randomGraph(seed int64, nodes int) *kb.Graph {
	rng := rand.New(rand.NewSource(seed))
	gb := kb.NewBuilder()
	for i := 0; i < nodes; i++ {
		gb.AddNode(fmt.Sprintf("n%d", i), "t")
	}
	labels := []kb.LabelID{gb.MustLabel("d", true), gb.MustLabel("u", false)}
	for i := 0; i < 3*nodes; i++ {
		if from, to := kb.NodeID(rng.Intn(nodes)), kb.NodeID(rng.Intn(nodes)); from != to {
			gb.AddEdge(from, to, labels[rng.Intn(len(labels))])
		}
	}
	return gb.Build()
}
