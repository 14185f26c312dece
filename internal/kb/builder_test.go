package kb

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestSeededBuilderLeavesSourceAlone: a builder seeded from a graph
// builds that graph again, and mutating it leaves the source's node
// table, label tables and name index byte-identical — also when the
// source is an overlay generation, one sharing its own source's label
// tables, or a compaction sharing its base's name maps, and for every
// graph the source shares them with. What the mutated builder builds is
// what the same ops give through an OverlayBuilder.
func TestSeededBuilderLeavesSourceAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := randomBase(rng, 60, 3, 200)
	ov := applyOpsOverlay(t, base, randomOps(rng, 60, 3, 15, 0))
	noLabel := applyOpsOverlay(t, base, []ovOp{{kind: 0, name: "x", typ: "robot"}, {kind: 2, from: 0, to: 60, label: 1}})
	if &noLabel.labels[0] != &base.labels[0] || !sameLabelMap(noLabel.labelIDs, base.labelIDs) {
		t.Fatal("a delta that registers no label copied the label tables")
	}
	compacted := applyOpsOverlay(t, base, []ovOp{
		{kind: 0, name: "added", typ: "robot"},
		{kind: 2, from: 0, to: 60, label: 0},
		{kind: 4, from: 5, typ: "android"},
	}).Compact()
	if !sameMap(compacted.byName, base.byName) {
		t.Fatal("the compaction does not share its base's name index")
	}

	// view copies what no graph may write to once it exists.
	type view struct {
		nodes              []Node
		labels             []string
		labelDirected      []bool
		labelIDs           map[string]LabelID
		byName, addedNames map[string]NodeID
		fp                 string
	}
	look := func(g *Graph) view {
		return view{slices.Clone(g.nodes), slices.Clone(g.labels), slices.Clone(g.labelDirected),
			maps.Clone(g.labelIDs), maps.Clone(g.byName), maps.Clone(g.addedNames), g.fp}
	}
	for _, tc := range []struct {
		name string
		src  *Graph
	}{{"plain", base}, {"overlay", ov}, {"labels_shared", noLabel}, {"compacted", compacted}} {
		t.Run(tc.name, func(t *testing.T) {
			related := []*Graph{base, ov, noLabel, compacted}
			before := make([]view, len(related))
			for i, g := range related {
				before[i] = look(g)
			}
			requireGraphsIdentical(t, "seeded", NewBuilderFrom(tc.src).Build(), tc.src)

			e := tc.src.Edges()[0]
			last := NodeID(tc.src.NumNodes() - 1)
			ops := []ovOp{
				{kind: 4, from: 0, typ: "retyped"},
				{kind: 4, from: last, typ: "moved"},
				{kind: 0, name: "seeded", typ: "robot"},
				{kind: 1, name: "seeded_label", directed: true},
				{kind: 2, from: 0, to: last + 1, label: 3},
				{kind: 3, from: e.From, to: e.To, label: e.Label},
			}
			b := NewBuilderFrom(tc.src)
			applyOps(t, b, ops)
			requireGraphsIdentical(t, "mutated", b.Build(), applyOpsOverlay(t, tc.src, ops))
			for i, g := range related {
				if !reflect.DeepEqual(look(g), before[i]) {
					t.Fatalf("graph %d changed under a builder seeded from %s (node 0 %+v)", i, tc.name, g.Node(0))
				}
				if g.NodeByName("seeded") != InvalidNode || g.LabelByName("seeded_label") != InvalidLabel {
					t.Fatalf("graph %d sees the seeded builder's additions", i)
				}
			}
		})
	}
}

// TestCloneIsDeep: a graph is cloned by building a builder seeded from
// it. The clone starts with the original's counts, and mutating the
// seeded builder leaves the original untouched.
func TestCloneIsDeep(t *testing.T) {
	g, a, b, c, star, spouse := buildTiny(t)
	cb := NewBuilderFrom(g)
	if cl := NewBuilderFrom(g).Build(); cl.NumNodes() != g.NumNodes() || cl.NumEdges() != g.NumEdges() || cl.NumLabels() != g.NumLabels() {
		t.Fatalf("clone counts = (%d,%d,%d), want (%d,%d,%d)",
			cl.NumNodes(), cl.NumEdges(), cl.NumLabels(),
			g.NumNodes(), g.NumEdges(), g.NumLabels())
	}

	// Mutating the clone must leave the original untouched.
	d := cb.AddNode("d", "person")
	cb.MustAddEdge(a, d, spouse)
	if _, err := cb.RemoveEdge(c, b, star); err != nil {
		t.Fatal(err)
	}
	if err := cb.SetNodeType(b, "robot"); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Errorf("original mutated: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(c, b, star) {
		t.Error("original lost edge removed from clone")
	}
	if g.Node(b).Type != "person" {
		t.Errorf("original node type = %q, want person", g.Node(b).Type)
	}
	if g.NodeByName("d") != InvalidNode {
		t.Error("original sees node added to clone")
	}

	cl := cb.Build()
	if !cl.HasEdge(a, d, spouse) || cl.HasEdge(c, b, star) {
		t.Error("clone mutations lost")
	}
}

// TestCloneFingerprintMatchesOriginal: an unmutated clone (a builder
// seeded from the graph and built) hashes like the original.
func TestCloneFingerprintMatchesOriginal(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	cl := NewBuilderFrom(g).Build()
	if g.Fingerprint() == "" {
		t.Fatal("empty fingerprint")
	}
	if cl.Fingerprint() != g.Fingerprint() {
		t.Errorf("unmutated clone fingerprint %s != original %s", cl.Fingerprint(), g.Fingerprint())
	}
}

func TestRemoveEdgeDirected(t *testing.T) {
	b, a, _, c, star, _ := tinyBuilder()
	// Wrong orientation: directed c→a cannot be removed as a→c.
	if ok, err := b.RemoveEdge(a, c, star); err != nil || ok {
		t.Fatalf("reverse orientation: removed=%v err=%v, want false nil", ok, err)
	}
	ok, err := b.RemoveEdge(c, a, star)
	if err != nil || !ok {
		t.Fatalf("removed=%v err=%v, want true nil", ok, err)
	}
	// Removing again is a no-op.
	if ok, err := b.RemoveEdge(c, a, star); err != nil || ok {
		t.Errorf("second removal: removed=%v err=%v, want false nil", ok, err)
	}
	g := b.Build()
	if g.HasEdge(c, a, star) {
		t.Error("edge still present after removal")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if got := len(g.NeighborsLabeled(c, star)); got != 1 {
		t.Errorf("c has %d starring half-edges, want 1", got)
	}
}

func TestRemoveEdgeUndirectedEitherOrientation(t *testing.T) {
	b, a, bn, _, _, spouse := tinyBuilder()
	// The spouse edge was added as (a, b); removing as (b, a) must work.
	ok, err := b.RemoveEdge(bn, a, spouse)
	if err != nil || !ok {
		t.Fatalf("removed=%v err=%v, want true nil", ok, err)
	}
	g := b.Build()
	if g.HasEdge(a, bn, spouse) || g.HasEdge(bn, a, spouse) {
		t.Error("undirected edge still present after removal")
	}
	if g.Degree(a) != 1 || g.Degree(bn) != 1 {
		t.Errorf("degrees = %d/%d, want 1/1", g.Degree(a), g.Degree(bn))
	}
}

func TestRemoveEdgeValidation(t *testing.T) {
	b, a, _, _, star, _ := tinyBuilder()
	if _, err := b.RemoveEdge(99, a, star); err == nil {
		t.Error("out-of-range from accepted")
	}
	if _, err := b.RemoveEdge(a, -1, star); err == nil {
		t.Error("out-of-range to accepted")
	}
	if _, err := b.RemoveEdge(a, a, 99); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestSetNodeType(t *testing.T) {
	b, a, _, _, _, _ := tinyBuilder()
	if err := b.SetNodeType(a, "director"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetNodeType(99, "x"); err == nil {
		t.Error("out-of-range node accepted")
	}
	g := b.Build()
	if g.Node(a).Type != "director" {
		t.Errorf("type = %q, want director", g.Node(a).Type)
	}
	persons := g.NodesOfType("person")
	if len(persons) != 1 {
		t.Errorf("NodesOfType(person) = %v after retype, want 1 node", persons)
	}
	if len(g.NodesOfType("director")) != 1 {
		t.Error("type index missing retyped node")
	}
}

func TestFingerprintTracksContent(t *testing.T) {
	g, a, b, _, _, spouse := buildTiny(t)
	fp1 := g.Fingerprint()
	if fp1 == "" {
		t.Fatal("empty fingerprint")
	}

	// Identical build history hashes identically.
	g2, _, _, _, _, _ := buildTiny(t)
	if g2.Fingerprint() != fp1 {
		t.Errorf("identical graphs hash %s vs %s", g2.Fingerprint(), fp1)
	}

	// Registering a label changes the hash: labels are hashed content
	// even before any edge uses them.
	lb := NewBuilderFrom(g)
	lb.MustLabel("directed_by", true)
	if lb.Build().Fingerprint() == fp1 {
		t.Error("fingerprint unchanged after label registration")
	}

	// Every mutation kind changes the hash.
	rb := NewBuilderFrom(g)
	if _, err := rb.RemoveEdge(a, b, spouse); err != nil {
		t.Fatal(err)
	}
	removed := rb.Build()
	if removed.Fingerprint() == fp1 {
		t.Error("fingerprint unchanged after edge removal")
	}
	tb := NewBuilderFrom(removed)
	if err := tb.SetNodeType(a, "director"); err != nil {
		t.Fatal(err)
	}
	if tb.Build().Fingerprint() == removed.Fingerprint() {
		t.Error("fingerprint unchanged after retype")
	}
}
