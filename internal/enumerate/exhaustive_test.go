package enumerate

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"rex/internal/kb"
	"rex/internal/obs"
)

// joinKB builds a small random graph with the shapes the exhaustive
// join must get right: a hub adjacent to every other node, two labels
// between one node pair, A→B and B→A under one label, undirected
// labels, and — by seed — start adjacent to end or end cut off from
// everything. It is returned unfrozen, with the edges it holds.
func joinKB(seed int64) (g *kb.Graph, start, end kb.NodeID, edges []kb.Edge) {
	rng := rand.New(rand.NewSource(seed))
	g = kb.New()
	n := 8 + rng.Intn(6)
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a'+i)), "t")
	}
	d1, d2, u1 := g.MustLabel("d1", true), g.MustLabel("d2", true), g.MustLabel("u1", false)
	labels := []kb.LabelID{d1, d2, u1}
	start, end = 0, 1
	const hub, a, b, c = 2, 3, 4, 5
	disconnected := seed%5 == 4
	add := func(from, to kb.NodeID, l kb.LabelID) {
		if from == to || disconnected && (from == end || to == end) {
			return
		}
		if ok, err := g.AddEdge(from, to, l); err != nil {
			panic(err)
		} else if ok {
			edges = append(edges, kb.Edge{From: from, To: to, Label: l})
		}
	}
	for i := 0; i < n; i++ {
		add(hub, kb.NodeID(i), labels[rng.Intn(len(labels))])
	}
	add(a, b, d1)
	add(a, b, d2)
	add(b, c, d1)
	add(c, b, d1)
	if seed%2 == 0 {
		add(start, end, labels[rng.Intn(len(labels))])
	}
	for i := n + rng.Intn(2*n); i > 0; i-- {
		add(kb.NodeID(rng.Intn(n)), kb.NodeID(rng.Intn(n)), labels[rng.Intn(len(labels))])
	}
	return g, start, end, edges
}

// sortedKeys copies and sorts a raw key list, so two routes compare as
// multisets: a path joined at a second split shows as a duplicate here,
// where groupPaths would drop it.
func sortedKeys(keys []pathKey) []pathKey {
	out := slices.Clone(keys)
	slices.SortFunc(out, func(a, b pathKey) int { return a.compare(&b) })
	return out
}

// assertIndexClean checks the invariant every exit of both routes owes
// the pooled state: an all-zero index over its whole capacity.
func assertIndexClean(t *testing.T, st *enumState, when string) {
	t.Helper()
	if len(st.touched) != 0 {
		t.Fatalf("%s: %d touched entries left", when, len(st.touched))
	}
	for id, h := range st.head[:cap(st.head)] {
		if h != 0 {
			t.Fatalf("%s: head[%d] = %d left behind", when, id, h)
		}
	}
}

// checkRoutesAgree runs the exhaustive join and the frontier on st and
// pathEnumNaive beside them and compares the raw key multisets; it also
// holds the join to the work the caps allow — one expansion per
// under-cap partial (the forward side's stop at end) and exactly the
// backward partials that are simple and avoid start — which the keys
// alone cannot show, because joinToKey rejects what a wider search adds.
func checkRoutesAgree(t *testing.T, st *enumState, g *kb.Graph, start, end kb.NodeID, maxLen int, when string) {
	t.Helper()
	naive, err := pathEnumNaive(context.Background(), g, start, end, maxLen, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedKeys(naive)

	tr := obs.NewTrace()
	got, err := st.pathEnumExhaustive(obs.NewContext(context.Background(), tr), g, start, end, maxLen)
	if err != nil {
		t.Fatalf("%s: exhaustive: %v", when, err)
	}
	if !slices.Equal(sortedKeys(got), want) {
		t.Fatalf("%s: exhaustive join found %d paths, naive %d, or different ones", when, len(got), len(want))
	}
	assertIndexClean(t, st, when+" after the join")
	var check cancelCheck
	fwd, _ := collectPartials(g, start, end, (maxLen+1)/2, forwardSide, &check)
	bwd, _ := collectPartials(g, end, start, maxLen/2, backwardSide, &check)
	expansions := 0
	for i := range fwd {
		if fwd[i].length() < (maxLen+1)/2 && fwd[i].last() != end {
			expansions++
		}
	}
	for i := range bwd {
		if bwd[i].length() < maxLen/2 {
			expansions++
		}
	}
	if len(st.bwd) != len(bwd) {
		t.Fatalf("%s: join stored %d backward partials, want %d", when, len(st.bwd), len(bwd))
	}
	if n := tr.Report().Expansions; n != int64(expansions) {
		t.Fatalf("%s: join counted %d expansions, want %d", when, n, expansions)
	}

	for name, bud := range map[string]Budget{"deadline": neverExpires(), "expansions": neverTruncates} {
		got, truncated, err := st.pathEnumPrioritized(context.Background(), g, start, end, maxLen, bud)
		if err != nil || truncated {
			t.Fatalf("%s: frontier by %s: truncated=%v err=%v", when, name, truncated, err)
		}
		if !slices.Equal(sortedKeys(got), want) {
			t.Fatalf("%s: frontier by %s found %d paths, naive %d, or different ones", when, name, len(got), len(want))
		}
		assertIndexClean(t, st, when+" after the frontier")
	}
}

// TestExhaustiveMatchesFrontier is the differential test of the two
// PathPrioritized routes against the naive enumerator.
func TestExhaustiveMatchesFrontier(t *testing.T) {
	t.Run("random graphs", testRoutesOnRandomGraphs)
	t.Run("cancelled mid-join", testJoinCancelled)
}

// testRoutesOnRandomGraphs has one pooled state serve a graph unfrozen,
// frozen, and as an overlay of depth 2 that added a node — on a path
// between the targets — and then deleted an edge, so an index sized
// once instead of per use reads out of range.
func testRoutesOnRandomGraphs(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		st := newEnumState()
		g, start, end, edges := joinKB(seed)
		// MaxPatternSize 2..8: odd path lengths have unequal caps, and
		// only at length 7 is the forward cap deep enough for a walk
		// that repeats an interior node to survive joinToKey.
		for size := 2; size <= 8; size++ {
			checkRoutesAgree(t, st, g, start, end, size-1, "unfrozen")
		}
		g.Freeze()
		for size := 2; size <= 8; size++ {
			checkRoutesAgree(t, st, g, start, end, size-1, "frozen")
		}
		b, err := kb.NewOverlayBuilder(g)
		if err != nil {
			t.Fatal(err)
		}
		added := b.AddNode("new", "t")
		for _, to := range []kb.NodeID{start, end, 2} {
			if _, err := b.AddEdge(added, to, g.LabelByName("u1")); err != nil {
				t.Fatal(err)
			}
		}
		g = b.Graph()
		if b, err = kb.NewOverlayBuilder(g); err != nil {
			t.Fatal(err)
		}
		e := edges[rand.New(rand.NewSource(seed)).Intn(len(edges))]
		if ok, err := b.RemoveEdge(e.From, e.To, e.Label); err != nil || !ok {
			t.Fatalf("seed %d: deledge %v: removed=%v err=%v", seed, e, ok, err)
		}
		g = b.Graph()
		if g.Overlay().Depth != 2 || g.NumNodes() <= len(st.head) {
			t.Fatalf("seed %d: overlay depth %d, %d nodes against an index of %d", seed, g.Overlay().Depth, g.NumNodes(), len(st.head))
		}
		for size := 2; size <= 8; size++ {
			checkRoutesAgree(t, st, g, start, end, size-1, "overlay")
		}
	}
}

// pollCtx reports cancellation from its cancelAt-th Err poll on, which
// puts the cancellation at a known expansion of a running enumerator.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// testJoinCancelled cancels the join on a complete graph of 24 nodes at
// its first context poll — its 256th expansion, in the forward walk at
// path length 5 (the backward side expands 23 partials) and in the
// backward scan at length 6 (485) — and checks the contract:
// context.Canceled and nil paths at that very poll, and an index left
// clean, so the same pooled state answers the next query correctly.
func testJoinCancelled(t *testing.T) {
	g := kb.New()
	const n = 24
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a'+i)), "t")
	}
	l := g.MustLabel("u", false)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(kb.NodeID(i), kb.NodeID(j), l)
		}
	}
	g.Freeze()
	st := newEnumState()
	for _, maxLen := range []int{5, 6} {
		ctx := &pollCtx{Context: context.Background(), cancelAt: 1}
		keys, err := st.pathEnumExhaustive(ctx, g, 0, 1, maxLen)
		if err != context.Canceled || keys != nil {
			t.Fatalf("maxLen %d: cancelled join returned %d keys, err %v", maxLen, len(keys), err)
		}
		if ctx.polls != 1 {
			t.Fatalf("maxLen %d: join polled the context %d times, want it to stop at the first", maxLen, ctx.polls)
		}
		assertIndexClean(t, st, "after a cancelled join")
		checkRoutesAgree(t, st, g, 0, 1, 3, "after a cancelled join")
	}
}
