package enumerate

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rex/internal/kb"
	"rex/internal/obs"
	"rex/internal/oracle"
)

// joinKB builds a small random graph with the shapes the exhaustive
// join must get right: a hub adjacent to every other node, two labels
// between one node pair, A→B and B→A under one label, undirected
// labels, and — by seed — start adjacent to end or end cut off from
// everything. It is returned with the edges it holds.
func joinKB(seed int64) (g *kb.Graph, start, end kb.NodeID, edges []kb.Edge) {
	rng := rand.New(rand.NewSource(seed))
	gb := kb.NewBuilder()
	n := 8 + rng.Intn(6)
	for i := 0; i < n; i++ {
		gb.AddNode(string(rune('a'+i)), "t")
	}
	d1, d2, u1 := gb.MustLabel("d1", true), gb.MustLabel("d2", true), gb.MustLabel("u1", false)
	labels := []kb.LabelID{d1, d2, u1}
	start, end = 0, 1
	const hub, a, b, c = 2, 3, 4, 5
	disconnected := seed%5 == 4
	add := func(from, to kb.NodeID, l kb.LabelID) {
		if from == to || disconnected && (from == end || to == end) {
			return
		}
		if ok, err := gb.AddEdge(from, to, l); err != nil {
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
	return gb.Build(), start, end, edges
}

// sortedKeys copies and sorts a raw key list, so the join and the oracle
// compare as multisets: a path joined at a second split shows as a duplicate here,
// where groupPaths would drop it.
func sortedKeys(keys []pathKey) []pathKey {
	out := slices.Clone(keys)
	slices.SortFunc(out, func(a, b pathKey) int { return a.compare(&b) })
	return out
}

// oracleKeys packs the oracle's paths into the served search's keys, in
// order and with every repeat.
func oracleKeys(paths []oracle.Path) []pathKey {
	keys := make([]pathKey, len(paths))
	for i, p := range paths {
		k := &keys[i]
		k.n = int8(len(p.Nodes))
		copy(k.nodes[:], p.Nodes)
		for j, s := range p.Steps {
			k.steps[j] = pathStepKey{label: s.Label, dir: s.Dir}
		}
	}
	return keys
}

// checkPathSearch runs the path search on st and oracle.PathEnumNaive
// beside it and compares the raw key multisets; it
// also holds the join to the work the caps allow — one expansion per
// under-cap partial of the side it stores (the endpoint with the smaller
// two-hop frontier, start on a tie), which never touches the other
// endpoint, and of the side it walks, which stops at the stored one, as
// oracle.Partials lists them — which the keys alone cannot show, because
// the join rejects what a wider search adds. An expansion cap of exactly
// that count must change nothing, and one below it must stop the join.
// It reports whether the join stored start.
func checkPathSearch(t *testing.T, st *enumState, g *kb.Graph, start, end kb.NodeID, maxLen int, when string) bool {
	t.Helper()
	want := sortedKeys(oracleKeys(oracle.PathEnumNaive(g, start, end, maxLen)))

	tr := obs.NewTrace()
	got, capped, err := st.pathSearch(obs.NewContext(context.Background(), tr), g, start, end, maxLen, 0)
	if err != nil || capped {
		t.Fatalf("%s: join: capped=%v err=%v", when, capped, err)
	}
	if !slices.Equal(sortedKeys(got), want) {
		t.Fatalf("%s: join found %d paths, naive %d, or different ones", when, len(got), len(want))
	}
	stored, walked := start, end
	if frontier(g, end) < frontier(g, start) {
		stored, walked = end, start
	}
	expansions := 0
	for _, p := range oracle.Partials(g, walked, stored, (maxLen+1)/2, false) {
		if p.Len() < (maxLen+1)/2 && p.Last() != stored {
			expansions++
		}
	}
	for _, p := range oracle.Partials(g, stored, walked, maxLen/2, true) {
		if p.Len() < maxLen/2 {
			expansions++
		}
	}
	if n := tr.Report().Expansions; n != int64(expansions) {
		t.Fatalf("%s: join counted %d expansions, want %d", when, n, expansions)
	}

	got, capped, err = st.pathSearch(context.Background(), g, start, end, maxLen, expansions)
	if err != nil || capped || !slices.Equal(sortedKeys(got), want) {
		t.Fatalf("%s: join capped at its own %d expansions: %d paths, naive %d, capped=%v err=%v", when, expansions, len(got), len(want), capped, err)
	}
	if expansions > 1 { // a cap of 0 is no cap
		if _, capped, err = st.pathSearch(context.Background(), g, start, end, maxLen, expansions-1); err != nil || !capped {
			t.Fatalf("%s: join capped one short of its %d expansions: capped=%v err=%v", when, expansions, capped, err)
		}
	}
	return stored == start
}

// frontier is the two-hop frontier the join picks its stored side by:
// Σ deg over a node's neighbours.
func frontier(g *kb.Graph, id kb.NodeID) int {
	n := 0
	for _, he := range g.Neighbors(id) {
		n += g.Degree(he.To)
	}
	return n
}

// TestPathSearchMatchesNaive is the differential test of the served
// path search against the oracle's naive enumerator.
func TestPathSearchMatchesNaive(t *testing.T) {
	t.Run("random graphs", testPathSearchOnRandomGraphs)
	t.Run("cancelled mid-join", testJoinCancelled)
}

// testPathSearchOnRandomGraphs has one pooled state serve a graph, and
// then the same graph as an overlay of depth 2 that added a node — on a
// path between the targets — and then deleted an edge. The join must
// have stored each endpoint in some case.
func testPathSearchOnRandomGraphs(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	var storedStart, storedEnd int
	count := func(start bool) {
		if start {
			storedStart++
		} else {
			storedEnd++
		}
	}
	for seed := int64(0); seed < seeds; seed++ {
		st := newEnumState()
		g, start, end, edges := joinKB(seed)
		// MaxPatternSize 2..8: odd path lengths give the walk a deeper
		// cap than the store.
		for size := 2; size <= 8; size++ {
			count(checkPathSearch(t, st, g, start, end, size-1, "built"))
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
		if g.Overlay().Depth != 2 {
			t.Fatalf("seed %d: overlay depth %d", seed, g.Overlay().Depth)
		}
		for size := 2; size <= 8; size++ {
			count(checkPathSearch(t, st, g, start, end, size-1, "overlay"))
		}
	}
	t.Logf("the join stored start in %d cases and end in %d", storedStart, storedEnd)
	if storedStart == 0 || storedEnd == 0 {
		t.Fatal("the join stored the same endpoint in every case")
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

// completeKB builds the complete graph on n nodes under one undirected
// label: the path searches between two of its nodes expand hundreds of
// partials at path length 5 and up, so they reach their context polls.
func completeKB(n int) *kb.Graph {
	gb := kb.NewBuilder()
	for i := 0; i < n; i++ {
		gb.AddNode(string(rune('a'+i)), "t")
	}
	l := gb.MustLabel("u", false)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gb.MustAddEdge(kb.NodeID(i), kb.NodeID(j), l)
		}
	}
	return gb.Build()
}

// testJoinCancelled cancels the join on a complete graph of 24 nodes at
// its first context poll — its 256th expansion (TestPathJoinPolls in kb
// pins that), in the walk at path length 5 (the stored side expands 23
// partials) and in the store at length 6 (485) — and checks the
// contract: context.Canceled and nil paths at that very poll, and a
// pooled state that answers the next query correctly. A deadline budget
// that ends the join instead truncates it, attributed to the deadline,
// and the caller's cancellation under such a budget is still an error.
func testJoinCancelled(t *testing.T) {
	g := completeKB(24)
	st := newEnumState()
	for _, maxLen := range []int{5, 6} {
		cfg := Config{MaxPatternSize: maxLen + 1}
		ctx := &pollCtx{Context: context.Background(), cancelAt: 1}
		es, truncated, err := st.paths(ctx, g, 0, 1, cfg)
		if err != context.Canceled || es != nil || truncated {
			t.Fatalf("maxLen %d: cancelled join returned %d explanations, truncated=%v err %v", maxLen, len(es), truncated, err)
		}
		if ctx.polls != 1 {
			t.Fatalf("maxLen %d: join polled the context %d times, want it to stop at the first", maxLen, ctx.polls)
		}
		checkPathSearch(t, st, g, 0, 1, 3, "after a cancelled join")

		tr := obs.NewTrace()
		expired, stop := WithDeadline(obs.NewContext(context.Background(), tr), time.Now().Add(-time.Second))
		if es, truncated, err = st.paths(expired, g, 0, 1, cfg); err != nil || !truncated {
			t.Fatalf("maxLen %d: expired deadline budget: %d explanations, truncated=%v err %v", maxLen, len(es), truncated, err)
		}
		if by := tr.Report().TruncatedBy; by != "enumerate:deadline" {
			t.Fatalf("maxLen %d: expired deadline budget attributed to %q", maxLen, by)
		}
		stop()
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if es, truncated, err = st.paths(neverExpires(t, cancelled), g, 0, 1, cfg); err != context.Canceled || es != nil || truncated {
			t.Fatalf("maxLen %d: cancelled under a deadline budget: %d explanations, truncated=%v err %v", maxLen, len(es), truncated, err)
		}
	}
}
