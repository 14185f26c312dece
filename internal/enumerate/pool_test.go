package enumerate

import (
	"context"
	"fmt"
	"testing"

	"rex/internal/kb"
	"rex/internal/kbgen"
)

// TestOversizedCountsFrontierPartials checks that the pool lets go of a
// state whose frontier grew past retainedCap where it actually grows: in
// the partials parked at a hub's neighbours, not in the number of nodes
// touched. start — 300 mids — hub — 300 leaves, end behind one leaf: the
// hub's expansion extends 300 pending paths by ~600 neighbours each while
// the search touches only ~600 nodes.
func TestOversizedCountsFrontierPartials(t *testing.T) {
	const fan = 300
	g := kb.New()
	l := g.MustLabel("r", false)
	add := func(from, to kb.NodeID) {
		if _, err := g.AddEdge(from, to, l); err != nil {
			t.Fatal(err)
		}
	}
	start, end, hub := g.AddNode("start", "t"), g.AddNode("end", "t"), g.AddNode("hub", "t")
	for i := 0; i < fan; i++ {
		mid, leaf := g.AddNode(fmt.Sprintf("mid%d", i), "t"), g.AddNode(fmt.Sprintf("leaf%d", i), "t")
		add(start, mid)
		add(mid, hub)
		add(hub, leaf)
		if i == 0 {
			add(leaf, end)
		}
	}
	g.Freeze()

	cfg := Config{MaxPatternSize: 7, PathAlg: PathPrioritized, Budget: neverTruncates}
	st := newEnumState()
	paths, truncated, err := st.paths(context.Background(), g, start, end, cfg)
	if err != nil || truncated || len(paths) != 1 {
		t.Fatalf("hub graph: %d path explanations, truncated=%v err=%v; want the one through the hub", len(paths), truncated, err)
	}
	if !st.oversized() {
		t.Errorf("a state keeping the hub's ~%d extensions over %d node states is not oversized (retainedCap %d)", fan*2*fan, cap(st.states), retainedCap)
	}

	// The bound must not cost an ordinary query its pooled state.
	sample := kbgen.Sample()
	sample.Freeze()
	st = newEnumState()
	if _, _, err := st.paths(context.Background(), sample, sample.NodeByName("brad_pitt"), sample.NodeByName("angelina_jolie"), cfg); err != nil {
		t.Fatal(err)
	}
	if st.oversized() {
		t.Error("a sample-KB query left its state oversized")
	}
}
