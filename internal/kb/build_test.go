package kb_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rex/internal/kb"
)

// TestBuildDeterminism: a built graph does not depend on the order its
// content was added in. Two builds of one scrambled edge order agree
// span for span; kbgen small's content added with its edges in a seeded
// random order has the generator's spans and fingerprint; and added
// with its nodes in a seeded random order as well — which renumbers
// every node — it has, by name, the same neighbours. The fingerprint is
// not compared there: it hashes an undirected edge with its lower node
// ID first (see Fingerprint), so it moves with the numbering.
func TestBuildDeterminism(t *testing.T) {
	scrambled := func() *kb.Graph {
		b := kb.NewBuilder()
		for _, n := range []string{"n0", "n1", "n2", "n3", "n4"} {
			b.AddNode(n, "t")
		}
		l := b.MustLabel("r", true)
		b.MustAddEdge(3, 1, l)
		b.MustAddEdge(0, 4, l)
		b.MustAddEdge(0, 2, l)
		b.MustAddEdge(0, 1, l)
		return b.Build()
	}
	requireSameSpans(t, "scrambled", scrambled(), scrambled())

	g := preset(t, "small")
	rng := rand.New(rand.NewSource(7))
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	nodes := g.Nodes()
	rebuild := func(nodes []kb.Node) *kb.Graph {
		b := kb.NewBuilder()
		for _, n := range nodes {
			b.AddNode(n.Name, n.Type)
		}
		for _, l := range g.Labels() {
			b.MustLabel(g.LabelName(l), g.LabelDirected(l))
		}
		for _, e := range edges {
			b.MustAddEdge(b.NodeByName(g.NodeName(e.From)), b.NodeByName(g.NodeName(e.To)), e.Label)
		}
		return b.Build()
	}
	edgeOrder := rebuild(nodes)
	requireSameSpans(t, "edges shuffled", edgeOrder, g)

	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	nodeOrder := rebuild(nodes)
	if nodeOrder.NodeByName(nodes[0].Name) != 0 || nodeOrder.NumEdges() != g.NumEdges() || nodeOrder.NumLabels() != g.NumLabels() {
		t.Fatalf("nodes shuffled: %d edges, %d labels, first node %d", nodeOrder.NumEdges(), nodeOrder.NumLabels(), nodeOrder.NodeByName(nodes[0].Name))
	}
	for _, n := range nodes {
		if got, want := namedNeighbors(nodeOrder, nodeOrder.NodeByName(n.Name)), namedNeighbors(g, n.ID); !slices.Equal(got, want) {
			t.Fatalf("nodes shuffled: %s has neighbours %v, generated %v", n.Name, got, want)
		}
	}
}

// requireSameSpans compares two graphs' fingerprints and every node's
// spans in both views.
func requireSameSpans(t *testing.T, tag string, got, want *kb.Graph) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() || got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: fingerprint %s over %d nodes, want %s over %d", tag, got.Fingerprint(), got.NumNodes(), want.Fingerprint(), want.NumNodes())
	}
	for id := kb.NodeID(0); int(id) < want.NumNodes(); id++ {
		if !slices.Equal(got.Neighbors(id), want.Neighbors(id)) {
			t.Fatalf("%s: node %d: neighbours %v, want %v", tag, id, got.Neighbors(id), want.Neighbors(id))
		}
		for _, l := range want.Labels() {
			if !slices.Equal(got.NeighborsLabeled(id, l), want.NeighborsLabeled(id, l)) {
				t.Fatalf("%s: node %d label %d: %v, want %v", tag, id, l, got.NeighborsLabeled(id, l), want.NeighborsLabeled(id, l))
			}
		}
	}
}

// namedNeighbors lists a node's half-edges by neighbour and label name,
// sorted.
func namedNeighbors(g *kb.Graph, id kb.NodeID) []string {
	var out []string
	for _, he := range g.Neighbors(id) {
		out = append(out, fmt.Sprintf("%s %s %v", g.NodeName(he.To), g.LabelName(he.Label), he.Dir))
	}
	slices.Sort(out)
	return out
}
