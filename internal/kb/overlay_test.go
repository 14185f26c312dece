package kb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// The overlay property: applying any op sequence through an
// OverlayBuilder answers every read accessor byte-identically to
// replaying the same ops onto a Builder seeded from the source and
// building it. The helpers below drive both paths from one randomised op
// stream, including tombstones over base CSR spans, duplicate no-ops,
// node additions, retypes and cancelling op pairs, then compare the
// full read surface.

// ovOp is one randomised mutation applied to both the overlay builder
// and the rebuild reference.
type ovOp struct {
	kind     int // 0 addNode, 1 addLabel, 2 addEdge, 3 delEdge, 4 setType
	name     string
	typ      string
	directed bool
	from, to NodeID
	label    LabelID
}

// applyOpsOverlay runs ops through an OverlayBuilder over src.
func applyOpsOverlay(t *testing.T, src *Graph, ops []ovOp) *Graph {
	t.Helper()
	b, err := NewOverlayBuilder(src)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, b, ops)
	return b.Graph()
}

// applyOpsRebuild runs ops onto a Builder seeded from src and builds it —
// the byte-identity oracle.
func applyOpsRebuild(t *testing.T, src *Graph, ops []ovOp) *Graph {
	t.Helper()
	b := NewBuilderFrom(src)
	applyOps(t, b, ops)
	return b.Build()
}

// mutator is what Builder and OverlayBuilder have in common.
type mutator interface {
	AddNode(name, typ string) NodeID
	Label(name string, directed bool) (LabelID, error)
	AddEdge(from, to NodeID, label LabelID) (bool, error)
	RemoveEdge(from, to NodeID, label LabelID) (bool, error)
	SetNodeType(id NodeID, typ string) error
}

func applyOps(t *testing.T, m mutator, ops []ovOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		switch op.kind {
		case 0:
			m.AddNode(op.name, op.typ)
		case 1:
			_, err = m.Label(op.name, op.directed)
		case 2:
			_, err = m.AddEdge(op.from, op.to, op.label)
		case 3:
			_, err = m.RemoveEdge(op.from, op.to, op.label)
		case 4:
			err = m.SetNodeType(op.from, op.typ)
		}
		if err != nil {
			t.Fatalf("op %+v: %v", op, err)
		}
	}
}

// randomBase builds a deterministic base graph.
func randomBase(rng *rand.Rand, nodes, labels, edges int) *Graph {
	g := NewBuilder()
	types := []string{"person", "film", "studio"}
	for i := 0; i < nodes; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), types[i%len(types)])
	}
	for i := 0; i < labels; i++ {
		g.MustLabel(fmt.Sprintf("l%d", i), i%2 == 0)
	}
	for i := 0; i < edges; i++ {
		from := NodeID(rng.Intn(nodes))
		to := NodeID(rng.Intn(nodes))
		if from == to {
			continue
		}
		g.AddEdge(from, to, LabelID(rng.Intn(labels)))
	}
	return g.Build()
}

// randomOps generates one delta's op stream against the current state,
// biased toward edge churn with occasional node/label/type changes and
// deliberate duplicate and cancelling pairs.
func randomOps(rng *rand.Rand, numNodes, numLabels, n int, round int) []ovOp {
	ops := make([]ovOp, 0, n)
	newNodes := 0
	for i := 0; i < n; i++ {
		from := NodeID(rng.Intn(numNodes + newNodes))
		to := NodeID(rng.Intn(numNodes + newNodes))
		label := LabelID(rng.Intn(numLabels))
		switch k := rng.Intn(10); {
		case k < 4: // add edge
			if from == to {
				continue
			}
			ops = append(ops, ovOp{kind: 2, from: from, to: to, label: label})
			if rng.Intn(4) == 0 { // duplicate add: must be a no-op
				ops = append(ops, ovOp{kind: 2, from: from, to: to, label: label})
			}
			if rng.Intn(5) == 0 { // cancelling remove in the same delta
				ops = append(ops, ovOp{kind: 3, from: from, to: to, label: label})
			}
		case k < 7: // remove edge (often a tombstone over a base span)
			if from == to {
				continue
			}
			ops = append(ops, ovOp{kind: 3, from: from, to: to, label: label})
			if rng.Intn(5) == 0 { // re-add after remove
				ops = append(ops, ovOp{kind: 2, from: from, to: to, label: label})
			}
		case k < 8: // add node, sometimes connect it
			name := fmt.Sprintf("r%dm%d", round, newNodes)
			ops = append(ops, ovOp{kind: 0, name: name, typ: "robot"})
			id := NodeID(numNodes + newNodes)
			newNodes++
			if rng.Intn(2) == 0 && id != from {
				ops = append(ops, ovOp{kind: 2, from: from, to: id, label: label})
			}
		case k < 9: // retype
			ops = append(ops, ovOp{kind: 4, from: from, typ: fmt.Sprintf("t%d", rng.Intn(4))})
		default: // new label, then use it
			name := fmt.Sprintf("r%dk%d", round, i)
			ops = append(ops, ovOp{kind: 1, name: name, directed: rng.Intn(2) == 0})
			if from != to {
				ops = append(ops, ovOp{kind: 2, from: from, to: to, label: LabelID(numLabels)})
				numLabels++
			}
		}
	}
	return ops
}

// requireGraphsIdentical compares the complete read surface of two
// graphs byte for byte.
func requireGraphsIdentical(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.NumLabels() != want.NumLabels() {
		t.Fatalf("%s: size (%d,%d,%d) != (%d,%d,%d)", tag,
			got.NumNodes(), got.NumEdges(), got.NumLabels(),
			want.NumNodes(), want.NumEdges(), want.NumLabels())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %s != %s", tag, got.Fingerprint(), want.Fingerprint())
	}
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("%s: node records differ", tag)
	}
	for i := 0; i < want.NumNodes(); i++ {
		id := NodeID(i)
		if got.Degree(id) != want.Degree(id) {
			t.Fatalf("%s: node %d degree %d != %d", tag, id, got.Degree(id), want.Degree(id))
		}
		gn, wn := got.Neighbors(id), want.Neighbors(id)
		if len(gn) != len(wn) {
			t.Fatalf("%s: node %d neighbors %v != %v", tag, id, gn, wn)
		}
		for j := range gn {
			if gn[j] != wn[j] {
				t.Fatalf("%s: node %d neighbor %d: %+v != %+v", tag, id, j, gn[j], wn[j])
			}
		}
		for l := 0; l < want.NumLabels(); l++ {
			gl, wl := got.NeighborsLabeled(id, LabelID(l)), want.NeighborsLabeled(id, LabelID(l))
			if len(gl) != len(wl) {
				t.Fatalf("%s: node %d label %d: %v != %v", tag, id, l, gl, wl)
			}
			for j := range gl {
				if gl[j] != wl[j] {
					t.Fatalf("%s: node %d label %d entry %d: %+v != %+v", tag, id, l, j, gl[j], wl[j])
				}
			}
		}
		if got.NodeName(id) != want.NodeName(id) {
			t.Fatalf("%s: node %d name %q != %q", tag, id, got.NodeName(id), want.NodeName(id))
		}
		if got.NodeByName(want.NodeName(id)) != id {
			t.Fatalf("%s: NodeByName(%q) = %d, want %d", tag, want.NodeName(id), got.NodeByName(want.NodeName(id)), id)
		}
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("%s: edge lists differ", tag)
	}
	types := map[string]bool{}
	for _, n := range want.Nodes() {
		types[n.Type] = true
	}
	for typ := range types {
		if !reflect.DeepEqual(got.NodesOfType(typ), want.NodesOfType(typ)) {
			t.Fatalf("%s: NodesOfType(%q) = %v, want %v", tag, typ, got.NodesOfType(typ), want.NodesOfType(typ))
		}
	}
	// Spot-check HasEdge over present edges and a sample of absent ones.
	for _, e := range want.Edges() {
		if !got.HasEdge(e.From, e.To, e.Label) {
			t.Fatalf("%s: missing edge %+v", tag, e)
		}
	}
}

// TestOverlayEquivalence is the tentpole property test: stacked overlay
// generations answer every read byte-identically to full rebuilds, and
// Compact preserves both content and fingerprint.
func TestOverlayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := randomBase(rng, 40, 6, 150)
			overlayG, rebuildG := base, base
			for round := 0; round < 4; round++ {
				ops := randomOps(rng, overlayG.NumNodes(), overlayG.NumLabels(), 25, round)
				overlayG = applyOpsOverlay(t, overlayG, ops)
				rebuildG = applyOpsRebuild(t, rebuildG, ops)
				tag := fmt.Sprintf("round %d", round)
				if overlayG.Overlay().Depth != round+1 {
					t.Fatalf("%s: overlay depth %d, want %d", tag, overlayG.Overlay().Depth, round+1)
				}
				requireGraphsIdentical(t, tag, overlayG, rebuildG)
			}
			// Compacting folds the chain into a plain graph with the same
			// content and fingerprint.
			compacted := overlayG.Compact()
			if compacted.Overlay().Depth != 0 {
				t.Fatalf("compacted graph still an overlay: %+v", compacted.Overlay())
			}
			requireGraphsIdentical(t, "compacted", compacted, rebuildG)
			// And a from-scratch build of the compacted content agrees on
			// the fingerprint (the XOR chain matches recomputation).
			if rebuilt := NewBuilderFrom(compacted).Build(); rebuilt.Fingerprint() != overlayG.Fingerprint() {
				t.Fatalf("rebuilt fingerprint %s != overlay %s", rebuilt.Fingerprint(), overlayG.Fingerprint())
			}
			// Overlay generations keep compacting to the same place after
			// further deltas on top of a compacted graph.
			ops := randomOps(rng, compacted.NumNodes(), compacted.NumLabels(), 10, 99)
			againOverlay := applyOpsOverlay(t, compacted, ops)
			againRebuild := applyOpsRebuild(t, rebuildG, ops)
			requireGraphsIdentical(t, "post-compact delta", againOverlay, againRebuild)
		})
	}
}

// TestOverlayEmptyDelta pins the no-change case: a builder with only
// no-op operations reports Changed()==false and still materialises a
// correct generation if asked.
func TestOverlayEmptyDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomBase(rng, 10, 3, 30)
	b, err := NewOverlayBuilder(base)
	if err != nil {
		t.Fatal(err)
	}
	// All no-ops: existing node, existing label, duplicate edge, absent
	// removal, retype to the current type.
	b.AddNode(base.NodeName(0), base.Node(0).Type)
	if _, err := b.Label(base.LabelName(0), base.LabelDirected(0)); err != nil {
		t.Fatal(err)
	}
	e := base.Edges()[0]
	if added, err := b.AddEdge(e.From, e.To, e.Label); err != nil || added {
		t.Fatalf("duplicate AddEdge = (%v, %v), want no-op", added, err)
	}
	if err := b.SetNodeType(0, base.Node(0).Type); err != nil {
		t.Fatal(err)
	}
	if b.Changed() {
		t.Fatal("no-op delta reports Changed")
	}
	g := b.Graph()
	requireGraphsIdentical(t, "noop", g, base)
}

// TestOverlayBuilderErrors pins that overlay validation matches
// Builder's messages.
func TestOverlayBuilderErrors(t *testing.T) {
	gb := NewBuilder()
	a := gb.AddNode("a", "person")
	gb.AddNode("b", "person")
	knows := gb.MustLabel("knows", false)
	gb.MustAddEdge(0, 1, knows)
	b, err := NewOverlayBuilder(gb.Build())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddEdge(a, a, knows); err == nil || !bytes.Contains([]byte(err.Error()), []byte("self-loop")) {
		t.Errorf("self-loop error = %v", err)
	}
	if _, err := b.AddEdge(a, 99, knows); err == nil || !bytes.Contains([]byte(err.Error()), []byte("out of range")) {
		t.Errorf("range error = %v", err)
	}
	if _, err := b.Label("knows", true); err == nil || !bytes.Contains([]byte(err.Error()), []byte("registered as directed=false")) {
		t.Errorf("directedness error = %v", err)
	}
	if err := b.SetNodeType(-1, "x"); err == nil {
		t.Error("negative SetNodeType succeeded")
	}
}

// TestOverlayBinaryRoundTrip: an overlay generation streams the bytes
// its compaction would write, without compacting; reading them back
// reproduces content and fingerprint.
func TestOverlayBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := randomBase(rng, 15, 4, 50)
	ovG := base
	for round := 0; round < 5; round++ { // stacked, with added nodes and labels
		ovG = applyOpsOverlay(t, ovG, randomOps(rng, ovG.NumNodes(), ovG.NumLabels(), 12, round))
	}
	var buf, compacted bytes.Buffer
	if err := ovG.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ovG.Compact().WriteBinary(&compacted); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), compacted.Bytes()) {
		t.Fatalf("overlay wrote %d bytes that differ from its compaction's %d", buf.Len(), compacted.Len())
	}
	if ovG.Overlay().Depth != 5 {
		t.Fatalf("writing changed the overlay: %+v", ovG.Overlay())
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsIdentical(t, "binary round trip", back, ovG.Compact())
	if back.xorFP != ovG.xorFP {
		t.Fatalf("xorFP %016x != %016x after round trip", back.xorFP, ovG.xorFP)
	}
}

// FuzzOverlayEquivalence drives the same property from fuzzer-chosen
// bytes: each byte pair selects an op against a fixed base, applied
// through both paths and compared.
func FuzzOverlayEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x13, 0x24, 0x35, 0x46})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x55, 0xaa, 0x11, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(rand.NewSource(42))
		base := randomBase(rng, 12, 3, 30)
		var ops []ovOp
		newNodes := 0
		for i := 0; i+1 < len(data); i += 2 {
			a, c := data[i], data[i+1]
			from := NodeID(int(a>>2) % (12 + newNodes))
			to := NodeID(int(c>>2) % (12 + newNodes))
			label := LabelID(int(c) % 3)
			switch a % 5 {
			case 0:
				ops = append(ops, ovOp{kind: 0, name: fmt.Sprintf("f%d", newNodes), typ: "fuzz"})
				newNodes++
			case 1:
				ops = append(ops, ovOp{kind: 1, name: fmt.Sprintf("fl%d", i), directed: c%2 == 0})
			case 2:
				if from != to {
					ops = append(ops, ovOp{kind: 2, from: from, to: to, label: label})
				}
			case 3:
				if from != to {
					ops = append(ops, ovOp{kind: 3, from: from, to: to, label: label})
				}
			case 4: // to another type, or back to the base type
				typ := fmt.Sprintf("t%d", c%3)
				if c&0x80 != 0 {
					typ = "fuzz"
					if from < 12 {
						typ = base.Node(from).Type
					}
				}
				ops = append(ops, ovOp{kind: 4, from: from, typ: typ})
			}
		}
		// One delta; every op a delta of its own, a chain with no fold;
		// and the same ops as two deltas cut at a fuzzed point, stacked
		// twice on one head (the second build loses the head's tip claim),
		// and with a compaction in between.
		want := applyOpsRebuild(t, base, ops)
		requireGraphsIdentical(t, "fuzz", applyOpsOverlay(t, base, ops), want)
		chain := base
		for i := range ops {
			chain = applyOpsOverlay(t, chain, ops[i:i+1])
		}
		requireGraphsIdentical(t, "fuzz chain", chain, want)
		cut := 0
		if len(ops) > 0 {
			cut = int(data[0]) % (len(ops) + 1)
		}
		head := applyOpsOverlay(t, base, ops[:cut])
		headWant := applyOpsRebuild(t, base, ops[:cut])
		requireSameArrays(t, "fuzz head compacted", head.Compact(), headWant)
		stacked := applyOpsOverlay(t, head, ops[cut:])
		requireGraphsIdentical(t, "fuzz stacked", stacked, want)
		requireSameArrays(t, "fuzz stacked compacted", stacked.Compact(), want)
		branch := applyOpsOverlay(t, head, ops[cut:])
		requireGraphsIdentical(t, "fuzz branch", branch, want)
		if countAdds(ops[cut:]) > 0 && &branch.nodes[0] == &stacked.nodes[0] {
			t.Fatal("two generations built on one head share a node table both appended to")
		}
		requireGraphsIdentical(t, "fuzz head after two builds on it", head, headWant)
		requireGraphsIdentical(t, "fuzz stacked after a branch", stacked, want)
		onCompacted := applyOpsOverlay(t, head.Compact(), ops[cut:])
		requireGraphsIdentical(t, "fuzz on compaction", onCompacted, want)
		requireSameArrays(t, "fuzz on compaction, compacted", onCompacted.Compact(), want)
	})
}

// countAdds counts the node additions among ops.
func countAdds(ops []ovOp) int {
	n := 0
	for _, op := range ops {
		if op.kind == 0 {
			n++
		}
	}
	return n
}

// sameLabelMap reports whether a and b are one map, not two equal ones.
func sameLabelMap(a, b map[string]LabelID) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestOverlayReadersDuringAppend runs readers over published generations
// — Node, NodeByName, NodesOfType and Neighbors against what each
// generation answered when it was built — while the tip keeps appending
// nodes into the node table they share, and while branches built on
// older generations lose the tip claim and copy. Under -race it is the
// proof that appending past a generation's length never touches what it
// reads.
func TestOverlayReadersDuringAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := randomBase(rng, 300, 3, 900)
	type gen struct {
		g      *Graph
		nodes  []Node
		types  map[string][]NodeID
		degree []int
	}
	record := func(g *Graph) *gen {
		r := &gen{g: g, nodes: g.Nodes(), types: map[string][]NodeID{}}
		for _, nd := range r.nodes {
			r.types[nd.Type] = nil
			r.degree = append(r.degree, g.Degree(nd.ID))
		}
		for typ := range r.types {
			r.types[typ] = g.NodesOfType(typ)
		}
		return r
	}
	var published atomic.Pointer[[]*gen]
	gens := []*gen{record(base)}
	published.Store(&gens)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				list := *published.Load()
				v := list[rrng.Intn(len(list))]
				id := NodeID(rrng.Intn(len(v.nodes)))
				nd := v.g.Node(id)
				if nd != v.nodes[id] || v.g.NodeByName(nd.Name) != id || len(v.g.Neighbors(id)) != v.degree[id] {
					t.Errorf("generation of %d nodes: node %d reads %+v, degree %d; it was built with %+v, degree %d",
						len(v.nodes), id, nd, len(v.g.Neighbors(id)), v.nodes[id], v.degree[id])
					return
				}
				if got := v.g.NodesOfType(nd.Type); !slices.Equal(got, v.types[nd.Type]) {
					t.Errorf("generation of %d nodes: NodesOfType(%q) changed", len(v.nodes), nd.Type)
					return
				}
			}
		}(int64(r))
	}
	appended := 0
	for round := range 300 {
		list := *published.Load()
		src := list[len(list)-1]
		if round%7 == 6 { // a branch on an older generation
			src = list[rng.Intn(len(list))]
		}
		ops := randomOps(rng, src.g.NumNodes(), src.g.NumLabels(), 6, round)
		ops = append(ops, ovOp{kind: 0, name: fmt.Sprintf("tip%d", round), typ: "robot"})
		next := applyOpsOverlay(t, src.g, ops)
		if next.claim == src.g.claim && len(src.g.nodes) > 0 && &next.nodes[0] == &src.g.nodes[0] {
			appended++
		}
		grown := append(slices.Clip(list), record(next))
		published.Store(&grown)
	}
	stop.Store(true)
	wg.Wait()
	if appended < 100 {
		t.Fatalf("%d of 300 generations appended in place, want most", appended)
	}
}
