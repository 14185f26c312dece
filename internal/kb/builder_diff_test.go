package kb

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refBuilder is the map-based model Builder's edge bookkeeping is held
// to: every edge once in a set keyed by (from, to, label), an undirected
// edge with from ≤ to, and each node's half-edges in insertion order.
type refBuilder struct {
	directed []bool
	edges    map[[3]int32]struct{}
	adj      [][]HalfEdge
}

func newRefBuilder(nodes int, directed []bool) *refBuilder {
	return &refBuilder{directed: directed, edges: map[[3]int32]struct{}{}, adj: make([][]HalfEdge, nodes)}
}

func (r *refBuilder) key(from, to NodeID, label LabelID) [3]int32 {
	if !r.directed[label] && from > to {
		from, to = to, from
	}
	return [3]int32{int32(from), int32(to), int32(label)}
}

func (r *refBuilder) dirs(label LabelID) (Dir, Dir) {
	if r.directed[label] {
		return Out, In
	}
	return Undirected, Undirected
}

func (r *refBuilder) add(from, to NodeID, label LabelID) bool {
	k := r.key(from, to, label)
	if _, ok := r.edges[k]; ok {
		return false
	}
	r.edges[k] = struct{}{}
	atFrom, atTo := r.dirs(label)
	r.adj[from] = append(r.adj[from], HalfEdge{To: to, Label: label, Dir: atFrom})
	r.adj[to] = append(r.adj[to], HalfEdge{To: from, Label: label, Dir: atTo})
	return true
}

func (r *refBuilder) remove(from, to NodeID, label LabelID) bool {
	k := r.key(from, to, label)
	if _, ok := r.edges[k]; !ok {
		return false
	}
	delete(r.edges, k)
	atFrom, atTo := r.dirs(label)
	r.adj[from] = slices.DeleteFunc(r.adj[from], func(h HalfEdge) bool { return h == HalfEdge{To: to, Label: label, Dir: atFrom} })
	r.adj[to] = slices.DeleteFunc(r.adj[to], func(h HalfEdge) bool { return h == HalfEdge{To: from, Label: label, Dir: atTo} })
	return true
}

// check requires g, built from the same stream, to hold the model's
// edges: Edges in (From, Label, To) order, every node's per-label span in
// (To, Dir) order, and the fingerprint of the model's content.
func (r *refBuilder) check(t *testing.T, tag string, g *Graph) {
	t.Helper()
	var want []Edge
	for k := range r.edges {
		want = append(want, Edge{From: NodeID(k[0]), To: NodeID(k[1]), Label: LabelID(k[2])})
	}
	slices.SortFunc(want, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.Label, y.Label), cmp.Compare(x.To, y.To))
	})
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("%s: Edges differ from the model: %d edges, want %d", tag, len(got), len(want))
	}
	if g.NumEdges() != len(want) {
		t.Fatalf("%s: NumEdges = %d, want %d", tag, g.NumEdges(), len(want))
	}
	for n := range r.adj {
		for l := range r.directed {
			var span []HalfEdge
			for _, he := range r.adj[n] {
				if he.Label == LabelID(l) {
					span = append(span, he)
				}
			}
			slices.SortFunc(span, func(x, y HalfEdge) int { return cmp.Or(cmp.Compare(x.To, y.To), cmp.Compare(x.Dir, y.Dir)) })
			if got := g.NeighborsLabeled(NodeID(n), LabelID(l)); !slices.Equal(got, span) {
				t.Fatalf("%s: NeighborsLabeled(%d, %d) = %v, want %v", tag, n, l, got, span)
			}
		}
	}
	var x uint64
	for n := 0; n < g.NumNodes(); n++ {
		nd := g.Node(NodeID(n))
		x ^= nodeHash(nd.Name, nd.Type)
	}
	for l, d := range r.directed {
		x ^= labelHash(g.LabelName(LabelID(l)), d)
	}
	for _, e := range want {
		x ^= edgeHash(g.NodeName(e.From), g.NodeName(e.To), g.LabelName(e.Label))
	}
	if fp := fpString(g.NumNodes(), len(want), len(r.directed), x); g.Fingerprint() != fp {
		t.Fatalf("%s: fingerprint %s, the model's content hashes to %s", tag, g.Fingerprint(), fp)
	}
}

// builderOp is one AddEdge or RemoveEdge call of a stream.
type builderOp struct {
	add      bool
	from, to NodeID
	label    LabelID
}

// builderOps draws a stream over nodes nodes and the given labels that
// adds new edges (node 0 is a hub, so the two endpoints' degrees differ
// and both sides get scanned), adds edges again in either orientation,
// removes present, absent and reversed edges, and removes an edge and
// adds it straight back.
func builderOps(rng *rand.Rand, nodes, labels, n int) []builderOp {
	node := func() NodeID {
		if rng.Intn(4) == 0 {
			return 0
		}
		return NodeID(rng.Intn(nodes))
	}
	var seen []builderOp
	var ops []builderOp
	for len(ops) < n {
		op := builderOp{from: node(), to: node(), label: LabelID(rng.Intn(labels))}
		if op.from == op.to {
			continue
		}
		if len(seen) > 0 && rng.Intn(2) == 0 {
			op = seen[rng.Intn(len(seen))]
			if rng.Intn(2) == 0 {
				op.from, op.to = op.to, op.from
			}
		}
		switch k := rng.Intn(10); {
		case k < 5:
			op.add = true
			seen = append(seen, op)
			ops = append(ops, op)
		case k < 8:
			ops = append(ops, op)
		default:
			readd := op
			readd.add = true
			ops = append(ops, op, readd)
		}
	}
	return ops
}

// TestBuilderMatchesMapReference replays seeded edge streams into a
// Builder and into refBuilder: every AddEdge and RemoveEdge result, the
// edge count, each node's insertion-ordered Neighbors, and the built
// graph's edges, label spans and fingerprint must agree.
func TestBuilderMatchesMapReference(t *testing.T) {
	directed := []bool{true, false, true, false}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 8 + rng.Intn(40)
		b := NewBuilder()
		for i := 0; i < nodes; i++ {
			b.AddNode(fmt.Sprintf("n%d", i), "t")
		}
		for l, d := range directed {
			b.MustLabel(fmt.Sprintf("l%d", l), d)
		}
		ref := newRefBuilder(nodes, directed)
		for i, op := range builderOps(rng, nodes, len(directed), 1500) {
			var got, want bool
			var err error
			if op.add {
				got, err = b.AddEdge(op.from, op.to, op.label)
				want = ref.add(op.from, op.to, op.label)
			} else {
				got, err = b.RemoveEdge(op.from, op.to, op.label)
				want = ref.remove(op.from, op.to, op.label)
			}
			if err != nil {
				t.Fatalf("seed %d op %d %+v: %v", seed, i, op, err)
			}
			if got != want || b.numEdges != len(ref.edges) {
				t.Fatalf("seed %d op %d %+v: reported %v with %d edges, the model %v with %d", seed, i, op, got, b.numEdges, want, len(ref.edges))
			}
			for _, n := range []NodeID{op.from, op.to} {
				if !slices.Equal(b.Neighbors(n), ref.adj[n]) {
					t.Fatalf("seed %d op %d %+v: Neighbors(%d) = %v, the model has %v", seed, i, op, n, b.Neighbors(n), ref.adj[n])
				}
			}
		}
		ref.check(t, fmt.Sprintf("seed %d", seed), b.Build())
	}
}

// TestBuilderDenseCore builds a complete bipartite K512,512 under one
// directed and one undirected label, adding every edge twice in both
// orientations, and logs the Builder's time: the duplicate check scans
// an endpoint's list, and here every list reaches 1 536 half-edges.
// The results and the graph are then held to refBuilder.
func TestBuilderDenseCore(t *testing.T) {
	if testing.Short() {
		t.Skip("about 2 M AddEdge calls on degree-1 536 nodes; skipped under -short")
	}
	const side = 512
	directed := []bool{true, false}
	b := NewBuilder()
	for i := 0; i < 2*side; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), "t")
	}
	for l, d := range directed {
		b.MustLabel(fmt.Sprintf("l%d", l), d)
	}
	var ops []builderOp
	for rep := 0; rep < 2; rep++ {
		for x := NodeID(0); x < side; x++ {
			for y := NodeID(side); y < 2*side; y++ {
				for l := range directed {
					ops = append(ops, builderOp{add: true, from: x, to: y, label: LabelID(l)}, builderOp{add: true, from: y, to: x, label: LabelID(l)})
				}
			}
		}
	}
	got := make([]bool, len(ops))
	t0 := time.Now()
	for i, op := range ops {
		ins, err := b.AddEdge(op.from, op.to, op.label)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = ins
	}
	added := time.Since(t0)
	g := b.Build()
	t.Logf("K%d,%d: %d AddEdge calls in %v, Build in %v, %d edges", side, side, len(ops), added, time.Since(t0)-added, g.NumEdges())

	ref := newRefBuilder(2*side, directed)
	for i, op := range ops {
		if want := ref.add(op.from, op.to, op.label); got[i] != want {
			t.Fatalf("op %d %+v: AddEdge reported %v, the model %v", i, op, got[i], want)
		}
	}
	ref.check(t, "dense core", g)
}
