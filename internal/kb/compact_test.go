package kb

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// Compact copies blocks instead of rebuilding, and Stats reads a kept
// maximum instead of scanning. Both are checked here against the code
// they no longer run: a compaction's arrays against a from-scratch
// Build of the same content, element for element, and Stats against a
// scan of every node.

// requireSameArrays compares the representation of a compacted graph
// with that of a rebuilt one: every CSR array, both indexes, the
// fingerprint and the kept maximum degree.
func requireSameArrays(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if got.ov != nil {
		t.Fatalf("%s: compaction is not a plain graph", tag)
	}
	check := func(what string, same bool) {
		t.Helper()
		if !same {
			t.Fatalf("%s: %s differs from a rebuild", tag, what)
		}
	}
	check("nodes", slices.Equal(got.nodes, want.nodes))
	check("labels", slices.Equal(got.labels, want.labels))
	check("labelDirected", slices.Equal(got.labelDirected, want.labelDirected))
	check("labelIDs", maps.Equal(got.labelIDs, want.labelIDs))
	check("csrOff", slices.Equal(got.csrOff, want.csrOff))
	check("csr", slices.Equal(got.csr, want.csr))
	check("spanOff", slices.Equal(got.spanOff, want.spanOff))
	check("spans", slices.Equal(got.spans, want.spans))
	check("byType", maps.EqualFunc(got.byType, want.byType, slices.Equal[[]NodeID]))
	check("fingerprint", got.fp == want.fp && got.xorFP == want.xorFP)
	check("numEdges", got.numEdges == want.numEdges)
	check("maxDegree", got.maxDegree == want.maxDegree)
	requireSameNames(t, tag, got, want)
}

// requireSameNames compares name lookups, not the maps behind them: a
// compaction shares its base's index and keeps the names added since in
// a second map. Every node's name — base and added alike — resolves to
// the same ID, and absent names to none.
func requireSameNames(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	for i := range want.nodes {
		name := want.nodes[i].Name
		if g, w := got.NodeByName(name), want.NodeByName(name); g != w {
			t.Fatalf("%s: NodeByName(%q) = %d, a rebuild says %d", tag, name, g, w)
		}
	}
	for _, name := range []string{"", "absent", "n-1", "a20"} {
		if id := got.NodeByName(name); id != InvalidNode {
			t.Fatalf("%s: NodeByName(%q) = %d for a name no node has", tag, name, id)
		}
	}
}

// requireStatsMatchScan recomputes Stats by a Degree scan of every node
// and compares field for field.
func requireStatsMatchScan(t *testing.T, tag string, g *Graph) {
	t.Helper()
	want := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Labels: g.NumLabels()}
	total := 0
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(NodeID(i))
		total += d
		if d > want.MaxDegree {
			want.MaxDegree = d
		}
	}
	if want.Nodes > 0 {
		want.AvgDegree = float64(total) / float64(want.Nodes)
	}
	if got := g.Stats(); got != want {
		t.Fatalf("%s: Stats() = %+v, a scan says %+v", tag, got, want)
	}
}

// The scenario's base has 2040 nodes: four 512-node overlay pages, the
// last with eight free slots. Nothing ever touches quietPage, so every
// generation has an all-nil page between touched ones.
const (
	scenarioNodes = 2040
	quietPage     = 2
)

func onQuietPage(id NodeID) bool { return int(id)>>ovPageShift == quietPage }

// offQuietPage drops the ops that would touch a node of the quiet page.
func offQuietPage(ops []ovOp) []ovOp {
	out := ops[:0]
	for _, op := range ops {
		if op.kind >= 2 && (onQuietPage(op.from) || (op.kind != 4 && onQuietPage(op.to))) {
			continue
		}
		out = append(out, op)
	}
	return out
}

// compactScenario stacks five deltas on the base, compacts, and applies
// one more on the compaction. visit sees every generation next to the
// same ops replayed onto a seeded Builder, which shares no code with the
// overlay or with Compact. The first delta is scripted:
// touched nodes at both ends of a page boundary (511, 512), at 0 and at
// the last base node; added nodes crossing into a new page, two of them
// with no edge; a node deleted down to degree 0; a new label; a retype
// out of a type nothing else touches (film → android) and one that
// empties its type (lonely). The third retypes the android back, which
// empties that type too and clears the node from the overlay's retyped
// set; the rest are random churn that add nodes or do not.
func compactScenario(t *testing.T, visit func(tag string, ov, rebuilt *Graph)) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	bb := NewBuilder()
	types := []string{"person", "film", "studio"}
	for i := 0; i < scenarioNodes; i++ {
		bb.AddNode(fmt.Sprintf("n%d", i), types[i%len(types)])
	}
	const lonely, emptied, retyped, last = NodeID(700), NodeID(100), NodeID(4), NodeID(scenarioNodes - 1)
	if err := bb.SetNodeType(lonely, "lonely"); err != nil {
		t.Fatal(err)
	}
	const numLabels = 4
	for i := 0; i < numLabels; i++ {
		bb.MustLabel(fmt.Sprintf("l%d", i), i%2 == 0)
	}
	for i := 0; i < 6000; i++ {
		from, to := NodeID(rng.Intn(scenarioNodes)), NodeID(rng.Intn(scenarioNodes))
		// Quiet-page nodes only neighbour each other, so touching a node
		// elsewhere never materialises one of them.
		if from != to && onQuietPage(from) == onQuietPage(to) {
			bb.MustAddEdge(from, to, LabelID(rng.Intn(numLabels)))
		}
	}
	base := bb.Build()

	fresh := LabelID(numLabels)
	first := []ovOp{
		{kind: 1, name: "fresh", directed: false},
		{kind: 2, from: 0, to: 511, label: fresh},
		{kind: 2, from: 512, to: last, label: fresh},
		{kind: 2, from: 0, to: last, label: 1},
		{kind: 4, from: retyped, typ: "android"},
		{kind: 4, from: lonely, typ: "person"},
	}
	if base.Degree(emptied) == 0 {
		t.Fatal("scenario node has no edge to delete")
	}
	for _, he := range base.Neighbors(emptied) {
		from, to := emptied, he.To
		if he.Dir == In {
			from, to = to, from
		}
		first = append(first, ovOp{kind: 3, from: from, to: to, label: he.Label})
	}
	const added = 20 // IDs 2040..2059: the page boundary is at 2048
	for i := 0; i < added; i++ {
		first = append(first, ovOp{kind: 0, name: fmt.Sprintf("a%d", i), typ: "concept"})
	}
	for i := 0; i < added-1; i++ {
		if i != 6 && i != 7 { // a7 and a19 stay without an edge
			first = append(first, ovOp{kind: 2, from: scenarioNodes + NodeID(i), to: scenarioNodes + NodeID(i+1), label: 0})
		}
	}

	ov, rebuilt := base, base
	for round := 1; round <= 5; round++ {
		ops := first
		if round > 1 {
			ops = offQuietPage(randomOps(rng, ov.NumNodes(), ov.NumLabels(), 30, round))
		}
		if round == 3 {
			ops = append(ops, ovOp{kind: 4, from: retyped, typ: "film"})
		}
		ov, rebuilt = applyOpsOverlay(t, ov, ops), applyOpsRebuild(t, rebuilt, ops)
		if ov.Overlay().Depth != round || ov.ov.pages[quietPage] != nil {
			t.Fatalf("round %d: depth %d, quiet page touched: %v", round, ov.Overlay().Depth, ov.ov.pages[quietPage] != nil)
		}
		if round == 1 && (ov.Degree(emptied) != 0 || len(ov.NodesOfType("lonely")) != 0 || len(ov.NodesOfType("android")) != 1) {
			t.Fatal("first delta did not empty the node and the type it set out to")
		}
		if round == 3 && len(ov.NodesOfType("android")) != 0 {
			t.Fatal("third delta did not empty the android type")
		}
		visit(fmt.Sprintf("%d stacked", round), ov, rebuilt)
	}
	ops := randomOps(rng, ov.NumNodes(), ov.NumLabels(), 30, 6)
	visit("on the compaction", applyOpsOverlay(t, ov.Compact(), ops), applyOpsRebuild(t, rebuilt, ops))
}

// TestCompactConcatenation: after 1, 2 and 5 stacked deltas, and after
// one more on a compacted graph, Compact's arrays equal a rebuild's.
func TestCompactConcatenation(t *testing.T) {
	compactScenario(t, func(tag string, ov, rebuilt *Graph) {
		requireGraphsIdentical(t, tag, ov, rebuilt)
		c := ov.Compact()
		requireSameArrays(t, tag, c, rebuilt)
		// A build seeded from the overlay is the same graph again.
		requireSameArrays(t, tag+" (seeded from the overlay)", c, NewBuilderFrom(ov).Build())
		// Shared type lists are the base's: a compaction must not have
		// written to them.
		requireGraphsIdentical(t, tag+" (overlay after compaction)", ov, rebuilt)
	})
}

// sameMap reports whether a and b are one map, not two equal ones.
func sameMap(a, b map[string]NodeID) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestCompactSharesNameIndex walks a compaction chain through every case
// of the two-level name index: the chain's additions shared as the
// second map, both maps shared when the chain added no name, the two
// second maps merged, and the fold once they outgrow a quarter of the
// full map. Lookups agree with a rebuild at every step.
func TestCompactSharesNameIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomBase(rng, 100, 3, 300)
	addNames := func(prefix string, n int) []ovOp {
		var ops []ovOp
		for i := 0; i < n; i++ {
			ops = append(ops, ovOp{kind: 0, name: fmt.Sprintf("%s%d", prefix, i), typ: "robot"})
		}
		return append(ops, ovOp{kind: 2, from: 1, to: 2, label: 0}, ovOp{kind: 3, from: 3, to: 4, label: 1})
	}
	cur, rebuilt := base, base
	for _, step := range []struct {
		tag   string
		ops   []ovOp
		added int // names in the compaction's second map; -1: folded
	}{
		{"chain's names become the second map", addNames("a", 5), 5},
		{"no name added: both maps shared", addNames("", 0), 5},
		{"second maps merged", addNames("b", 5), 10},
		{"folded past a quarter", addNames("c", 20), -1},
		{"fresh second map after the fold", addNames("d", 3), 3},
	} {
		ov := applyOpsOverlay(t, cur, step.ops)
		rebuilt = applyOpsRebuild(t, rebuilt, step.ops)
		c := ov.Compact()
		requireSameArrays(t, step.tag, c, rebuilt)
		switch {
		case step.added < 0:
			if c.addedNames != nil || len(c.byName) != c.NumNodes() || sameMap(c.byName, cur.byName) {
				t.Fatalf("%s: %d + %d names, want one fresh full map", step.tag, len(c.byName), len(c.addedNames))
			}
		case !sameMap(c.byName, cur.byName) || len(c.addedNames) != step.added:
			t.Fatalf("%s: full map shared %v, %d added names, want shared and %d", step.tag,
				sameMap(c.byName, cur.byName), len(c.addedNames), step.added)
		case len(step.ops) == 2 && !sameMap(c.addedNames, cur.addedNames):
			t.Fatalf("%s: a chain that added no name copied the second map", step.tag)
		}
		cur = c
	}
}

// TestStatsMatchesScan: the constant-time Stats of every graph — built,
// overlay, compacted, loaded and rebuilt from a seeded builder — equals
// a scan.
func TestStatsMatchesScan(t *testing.T) {
	compactScenario(t, func(tag string, ov, rebuilt *Graph) {
		requireStatsMatchScan(t, tag+" overlay", ov)
		requireStatsMatchScan(t, tag+" compacted", ov.Compact())
		requireStatsMatchScan(t, tag+" rebuilt", rebuilt)
	})

	// hub and twin tie for the maximum at 6, each joined to six spokes.
	b := NewBuilder()
	hub, twin := b.AddNode("hub", "t"), b.AddNode("twin", "t")
	l := b.MustLabel("l", false)
	var spokes []NodeID
	for i := 0; i < 6; i++ {
		s := b.AddNode(fmt.Sprintf("s%d", i), "t")
		spokes = append(spokes, s)
		b.MustAddEdge(hub, s, l)
		b.MustAddEdge(twin, s, l)
	}
	g := b.Build()
	requireStatsMatchScan(t, "built", g)
	del := func(from, to NodeID) ovOp { return ovOp{kind: 3, from: from, to: to, label: l} }
	add := func(from, to NodeID) ovOp { return ovOp{kind: 2, from: from, to: to, label: l} }
	for _, step := range []struct {
		tag     string
		ops     []ovOp
		wantMax int
	}{
		{"one of two tied maxima shrinks", []ovOp{del(hub, spokes[0])}, 6},          // hub 5, twin 6
		{"the unique maximum shrinks", []ovOp{del(twin, spokes[1])}, 5},             // hub 5, twin 5
		{"a node below the maximum shrinks", []ovOp{del(twin, spokes[2])}, 5},       // hub 5, twin 4
		{"the maximum moves", []ovOp{del(hub, spokes[3]), add(twin, spokes[1])}, 5}, // hub 4, twin 5
		{"a node outgrows the maximum", []ovOp{add(hub, twin)}, 6},                  // hub 5, twin 6
	} {
		g = applyOpsOverlay(t, g, step.ops)
		requireStatsMatchScan(t, step.tag, g)
		requireStatsMatchScan(t, step.tag+" (compacted)", g.Compact())
		if got := g.Stats().MaxDegree; got != step.wantMax {
			t.Fatalf("%s: MaxDegree %d, want %d", step.tag, got, step.wantMax)
		}
	}

	// Rebuilt from a builder seeded from an overlay generation and from a
	// plain graph, as they are and with an edge removed.
	for tag, src := range map[string]*Graph{"overlay": g, "plain": g.Compact()} {
		requireStatsMatchScan(t, tag+" rebuilt", NewBuilderFrom(src).Build())
		m := NewBuilderFrom(src)
		if _, err := m.RemoveEdge(hub, twin, l); err != nil {
			t.Fatal(err)
		}
		rebuilt := m.Build()
		requireStatsMatchScan(t, tag+" rebuilt less an edge", rebuilt)
		if got := rebuilt.Stats().MaxDegree; got != 5 {
			t.Fatalf("%s rebuilt less an edge: MaxDegree %d, want 5", tag, got)
		}
	}

	// The binary loader keeps the maximum from the degree array it reads.
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireStatsMatchScan(t, "loaded", back)
	requireStatsMatchScan(t, "empty", NewBuilder().Build())
}
