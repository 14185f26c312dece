package kb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The overlay property: applying any op sequence through an
// OverlayBuilder answers every read accessor byte-identically to
// replaying the same ops through Clone + the ordinary mutators +
// Freeze. The helpers below drive both paths from one randomised op
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
	for _, op := range ops {
		applyToMutator(t, op,
			func(name, typ string) { b.AddNode(name, typ) },
			func(name string, dir bool) error { _, err := b.Label(name, dir); return err },
			func(f, to NodeID, l LabelID) error { _, err := b.AddEdge(f, to, l); return err },
			func(f, to NodeID, l LabelID) error { _, err := b.RemoveEdge(f, to, l); return err },
			func(id NodeID, typ string) error { return b.SetNodeType(id, typ) })
	}
	return b.Graph()
}

// applyOpsRebuild runs ops through the legacy Clone + mutate + Freeze
// path — the byte-identity oracle.
func applyOpsRebuild(t *testing.T, src *Graph, ops []ovOp) *Graph {
	t.Helper()
	g := src.Clone()
	for _, op := range ops {
		applyToMutator(t, op,
			func(name, typ string) { g.AddNode(name, typ) },
			func(name string, dir bool) error { _, err := g.Label(name, dir); return err },
			func(f, to NodeID, l LabelID) error { _, err := g.AddEdge(f, to, l); return err },
			func(f, to NodeID, l LabelID) error { _, err := g.RemoveEdge(f, to, l); return err },
			func(id NodeID, typ string) error { return g.SetNodeType(id, typ) })
	}
	g.Freeze()
	return g
}

func applyToMutator(t *testing.T, op ovOp,
	addNode func(string, string),
	addLabel func(string, bool) error,
	addEdge, delEdge func(NodeID, NodeID, LabelID) error,
	setType func(NodeID, string) error) {
	t.Helper()
	var err error
	switch op.kind {
	case 0:
		addNode(op.name, op.typ)
	case 1:
		err = addLabel(op.name, op.directed)
	case 2:
		err = addEdge(op.from, op.to, op.label)
	case 3:
		err = delEdge(op.from, op.to, op.label)
	case 4:
		err = setType(op.from, op.typ)
	}
	if err != nil {
		t.Fatalf("op %+v: %v", op, err)
	}
}

// randomBase builds a deterministic frozen base graph.
func randomBase(rng *rand.Rand, nodes, labels, edges int) *Graph {
	g := New()
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
	g.Freeze()
	return g
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
// frozen graphs byte for byte.
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
			// And a from-scratch freeze of the compacted content agrees on
			// the fingerprint (the XOR chain matches recomputation).
			refreeze := compacted.Clone()
			refreeze.Freeze()
			if refreeze.Fingerprint() != overlayG.Fingerprint() {
				t.Fatalf("refreeze fingerprint %s != overlay %s", refreeze.Fingerprint(), overlayG.Fingerprint())
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

// TestOverlayThawDetaches checks the mutate-an-overlay escape hatch:
// thawing an overlay generation detaches it from the base, so further
// mutations never corrupt the still-serving base or siblings.
func TestOverlayThawDetaches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := randomBase(rng, 20, 4, 60)
	baseFP := base.Fingerprint()
	ops := randomOps(rng, 20, 4, 15, 0)
	ovG := applyOpsOverlay(t, base, ops)
	want := applyOpsRebuild(t, base, ops)

	// Clone of an overlay generation is a full private copy.
	cl := ovG.Clone()
	cl.Freeze()
	requireGraphsIdentical(t, "clone", cl, want)

	// Mutating the overlay generation detaches it; the base is untouched.
	mutated := ovG.Clone()
	id := mutated.AddNode("detached", "robot")
	l := mutated.MustLabel("dl", false)
	mutated.MustAddEdge(0, id, l)
	mutated.Freeze()
	if base.Fingerprint() != baseFP {
		t.Fatalf("base fingerprint changed: %s != %s", base.Fingerprint(), baseFP)
	}
	requireGraphsIdentical(t, "sibling overlay", ovG, want)
	if mutated.NodeByName("detached") != id {
		t.Fatalf("detached mutation lost")
	}
}

// TestOverlayBuilderErrors pins that builder validation matches the
// mutate path's messages.
func TestOverlayBuilderErrors(t *testing.T) {
	g := New()
	a := g.AddNode("a", "person")
	g.AddNode("b", "person")
	knows := g.MustLabel("knows", false)
	g.MustAddEdge(0, 1, knows)
	g.Freeze()
	b, err := NewOverlayBuilder(g)
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
	unfrozen := New()
	unfrozen.AddNode("x", "t")
	if _, err := NewOverlayBuilder(unfrozen); err == nil {
		t.Error("NewOverlayBuilder accepted an unfrozen graph")
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
			case 4:
				ops = append(ops, ovOp{kind: 4, from: from, typ: fmt.Sprintf("t%d", c%3)})
			}
		}
		// One delta, and the same ops as two deltas cut at a fuzzed point,
		// stacked, with a compaction in between, and stacked then re-based
		// onto the compaction of the first.
		want := applyOpsRebuild(t, base, ops)
		requireGraphsIdentical(t, "fuzz", applyOpsOverlay(t, base, ops), want)
		cut := 0
		if len(ops) > 0 {
			cut = int(data[0]) % (len(ops) + 1)
		}
		head := applyOpsOverlay(t, base, ops[:cut])
		requireSameArrays(t, "fuzz head compacted", head.Compact(), applyOpsRebuild(t, base, ops[:cut]))
		stacked := applyOpsOverlay(t, head, ops[cut:])
		requireGraphsIdentical(t, "fuzz stacked", stacked, want)
		requireSameArrays(t, "fuzz stacked compacted", stacked.Compact(), want)
		onCompacted := applyOpsOverlay(t, head.Compact(), ops[cut:])
		requireGraphsIdentical(t, "fuzz on compaction", onCompacted, want)
		requireSameArrays(t, "fuzz on compaction, compacted", onCompacted.Compact(), want)
		rebased := stacked.Rebase(head, head.Compact())
		requireGraphsIdentical(t, "fuzz re-based", rebased, want)
		requireSameArrays(t, "fuzz re-based, compacted", rebased.Compact(), want)
	})
}

// TestRebaseMatchesRebuild re-bases every generation of a chain onto the
// compaction of every ancestor, as a fold that finishes some deltas
// after its generation does: the result reads like the rebuild, it
// compacts to the rebuild's arrays, it holds only the nodes touched
// since the ancestor, and deltas stack on it — through a second fold
// and re-base, too.
func TestRebaseMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := randomBase(rng, 700, 5, 2500) // two overlay pages
		chain, rebuilt := []*Graph{base}, []*Graph{base}
		// Node 5 is retyped away from its base type in round 1 and back in
		// round 4; late is added in round 2, retyped in round 4 and back in
		// round 5.
		late := InvalidNode
		for round := 0; round < 6; round++ {
			prev := chain[len(chain)-1]
			ops := randomOps(rng, prev.NumNodes(), prev.NumLabels(), 20, round)
			switch round {
			case 1:
				ops = append(ops, ovOp{kind: 4, from: 5, typ: "android"})
			case 2:
				ops = append(ops, ovOp{kind: 0, name: "late", typ: "robot"})
				late = NodeID(prev.NumNodes() + countAdds(ops) - 1)
			case 4:
				ops = append(ops, ovOp{kind: 4, from: late, typ: "android"}, ovOp{kind: 4, from: 5, typ: base.Node(5).Type})
			case 5:
				ops = append(ops, ovOp{kind: 4, from: late, typ: "robot"})
			}
			chain = append(chain, applyOpsOverlay(t, prev, ops))
			rebuilt = append(rebuilt, applyOpsRebuild(t, rebuilt[len(rebuilt)-1], ops))
		}
		for from := 1; from < len(chain); from++ {
			onto := chain[from].Compact()
			for tip := from; tip < len(chain); tip++ {
				tag := fmt.Sprintf("seed %d: generation %d re-based onto %d", seed, tip, from)
				r := chain[tip].Rebase(chain[from], onto)
				if tip == from && r != onto {
					t.Fatalf("%s: a generation re-based onto its own compaction is not that compaction", tag)
				}
				if got := r.Overlay().Depth; got != tip-from {
					t.Fatalf("%s: depth %d, want %d", tag, got, tip-from)
				}
				requireGraphsIdentical(t, tag, r, rebuilt[tip])
				requireSameArrays(t, tag+", compacted", r.Compact(), rebuilt[tip])
				requireStatsMatchScan(t, tag, r)
				if tip > from {
					requireOnlyChangedSince(t, tag, r, chain[tip], chain[from])
				}
			}
		}
		// Stack deltas on a re-based generation, fold again and re-base
		// again: the second round runs over the first fold's arrays.
		g := chain[len(chain)-1].Rebase(chain[3], chain[3].Compact())
		want := rebuilt[len(rebuilt)-1]
		var folded *Graph
		for round := 10; round < 14; round++ {
			ops := randomOps(rng, g.NumNodes(), g.NumLabels(), 20, round)
			g, want = applyOpsOverlay(t, g, ops), applyOpsRebuild(t, want, ops)
			requireGraphsIdentical(t, fmt.Sprintf("seed %d: round %d over a re-base", seed, round), g, want)
			if round == 11 {
				folded = g
			}
		}
		g = g.Rebase(folded, folded.Compact())
		requireGraphsIdentical(t, fmt.Sprintf("seed %d: second re-base", seed), g, want)
		requireSameArrays(t, fmt.Sprintf("seed %d: second re-base, compacted", seed), g.Compact(), want)
	}
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

// requireOnlyChangedSince checks a re-base's patch set: a node is
// materialised iff the tip's overlay node is not the one from had, the
// materialised half-edges add up, and the added-name index holds only
// the names added since from.
func requireOnlyChangedSince(t *testing.T, tag string, r, tip, from *Graph) {
	t.Helper()
	halfEdges := 0
	for i := range tip.NumNodes() {
		id := NodeID(i)
		want := tip.ov.node(id)
		if i < from.NumNodes() && from.ov.node(id) == want {
			want = nil
		}
		if got := r.ov.node(id); got != want {
			t.Fatalf("%s: node %d materialised as %p, want %p", tag, id, got, want)
		}
		if want != nil {
			halfEdges += len(want.csr)
		}
	}
	if r.Overlay().HalfEdges != halfEdges {
		t.Fatalf("%s: %d materialised half-edges, want %d", tag, r.Overlay().HalfEdges, halfEdges)
	}
	if added := tip.NumNodes() - from.NumNodes(); len(r.ov.addedByName) != added {
		t.Fatalf("%s: %d names in the added index, want the %d added since from", tag, len(r.ov.addedByName), added)
	}
}
