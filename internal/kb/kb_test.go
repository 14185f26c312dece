package kb

import (
	"testing"
)

// tinyBuilder holds a, b (person) and c (film), c starring a and b, and
// a married to b.
func tinyBuilder() (*Builder, NodeID, NodeID, NodeID, LabelID, LabelID) {
	g := NewBuilder()
	a := g.AddNode("a", "person")
	b := g.AddNode("b", "person")
	c := g.AddNode("c", "film")
	star := g.MustLabel("starring", true)
	spouse := g.MustLabel("spouse", false)
	g.MustAddEdge(c, a, star)
	g.MustAddEdge(c, b, star)
	g.MustAddEdge(a, b, spouse)
	return g, a, b, c, star, spouse
}

func buildTiny(t *testing.T) (*Graph, NodeID, NodeID, NodeID, LabelID, LabelID) {
	t.Helper()
	b, a, bn, c, star, spouse := tinyBuilder()
	return b.Build(), a, bn, c, star, spouse
}

func TestAddNodeDeduplicates(t *testing.T) {
	gb := NewBuilder()
	a := gb.AddNode("x", "person")
	b := gb.AddNode("x", "film") // same name: returns existing, keeps type
	if a != b {
		t.Fatalf("AddNode returned %d then %d for the same name", a, b)
	}
	g := gb.Build()
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
	if g.Node(a).Type != "person" {
		t.Fatalf("type overwritten to %q", g.Node(a).Type)
	}
}

func TestLabelDirectednessConflict(t *testing.T) {
	g := NewBuilder()
	if _, err := g.Label("starring", true); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if _, err := g.Label("starring", true); err != nil {
		t.Fatalf("consistent re-registration: %v", err)
	}
	if _, err := g.Label("starring", false); err == nil {
		t.Fatal("conflicting directedness accepted")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewBuilder()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	l := g.MustLabel("rel", true)
	cases := []struct {
		name     string
		from, to NodeID
		label    LabelID
	}{
		{"from out of range", 99, b, l},
		{"to out of range", a, 99, l},
		{"negative from", -1, b, l},
		{"label out of range", a, b, 7},
		{"self loop", a, a, l},
	}
	for _, tc := range cases {
		if _, err := g.AddEdge(tc.from, tc.to, tc.label); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := NewBuilder()
	a := g.AddNode("a", "t")
	b := g.AddNode("b", "t")
	d := g.MustLabel("directed", true)
	u := g.MustLabel("undirected", false)

	ins, err := g.AddEdge(a, b, d)
	if err != nil || !ins {
		t.Fatalf("first directed insert: ins=%v err=%v", ins, err)
	}
	ins, _ = g.AddEdge(a, b, d)
	if ins {
		t.Fatal("duplicate directed edge inserted")
	}
	// Opposite orientation of a directed label is a different edge.
	ins, _ = g.AddEdge(b, a, d)
	if !ins {
		t.Fatal("reverse directed edge rejected as duplicate")
	}
	// Undirected edges deduplicate in either orientation.
	ins, _ = g.AddEdge(a, b, u)
	if !ins {
		t.Fatal("first undirected insert rejected")
	}
	ins, _ = g.AddEdge(b, a, u)
	if ins {
		t.Fatal("reversed undirected duplicate inserted")
	}
	if n := g.Build().NumEdges(); n != 3 {
		t.Fatalf("NumEdges = %d, want 3", n)
	}
}

func TestHasEdgeOrientation(t *testing.T) {
	g, a, b, c, star, spouse := buildTiny(t)
	if !g.HasEdge(c, a, star) {
		t.Error("missing directed edge c→a")
	}
	if g.HasEdge(a, c, star) {
		t.Error("directed edge matched in reverse orientation")
	}
	if !g.HasEdge(a, b, spouse) || !g.HasEdge(b, a, spouse) {
		t.Error("undirected edge must match both orientations")
	}
	if g.HasEdge(a, c, spouse) {
		t.Error("nonexistent edge reported")
	}
	_ = b
}

func TestNeighborsAndDegree(t *testing.T) {
	g, a, b, c, star, spouse := buildTiny(t)
	if g.Degree(a) != 2 || g.Degree(b) != 2 || g.Degree(c) != 2 {
		t.Fatalf("degrees = %d,%d,%d want 2,2,2", g.Degree(a), g.Degree(b), g.Degree(c))
	}
	var sawStar, sawSpouse bool
	for _, he := range g.Neighbors(a) {
		switch {
		case he.Label == star && he.Dir == In && he.To == c:
			sawStar = true
		case he.Label == spouse && he.Dir == Undirected && he.To == b:
			sawSpouse = true
		}
	}
	if !sawStar || !sawSpouse {
		t.Errorf("half-edge views wrong: star=%v spouse=%v", sawStar, sawSpouse)
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges() returned %d, want 3", len(es))
	}
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.From > b.From || (a.From == b.From && (a.Label > b.Label || a.Label == b.Label && a.To > b.To)) {
			t.Fatalf("edges not sorted at %d: %v then %v", i, a, b)
		}
	}
}

func TestNodesOfType(t *testing.T) {
	g, a, b, c, _, _ := buildTiny(t)
	persons := g.NodesOfType("person")
	if len(persons) != 2 || persons[0] != a || persons[1] != b {
		t.Fatalf("persons = %v, want [%d %d]", persons, a, b)
	}
	films := g.NodesOfType("film")
	if len(films) != 1 || films[0] != c {
		t.Fatalf("films = %v", films)
	}
	if got := g.NodesOfType("nope"); got != nil {
		t.Fatalf("unknown type returned %v", got)
	}
}

func TestStats(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	s := g.Stats()
	if s.Nodes != 3 || s.Edges != 3 || s.Labels != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDegree != 2 || s.AvgDegree != 2 {
		t.Fatalf("degree stats = %+v", s)
	}
}

func TestLookupsOnMissing(t *testing.T) {
	g := NewBuilder().Build()
	if g.NodeByName("ghost") != InvalidNode {
		t.Error("NodeByName on empty graph")
	}
	if g.LabelByName("ghost") != InvalidLabel {
		t.Error("LabelByName on empty graph")
	}
	if g.NodeName(-1) == "" || g.LabelName(-1) == "" {
		t.Error("placeholder names must be non-empty")
	}
}

func TestDirString(t *testing.T) {
	if Out.String() != "out" || In.String() != "in" || Undirected.String() != "undirected" {
		t.Error("Dir.String basics")
	}
	if Dir(9).String() == "" {
		t.Error("unknown Dir must render something")
	}
}
