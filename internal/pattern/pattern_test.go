package pattern

import (
	"strings"
	"testing"

	"rex/internal/kb"
)

// testSchema builds a graph used only for its label metadata.
func testSchema(t *testing.T) (*kb.Graph, kb.LabelID, kb.LabelID, kb.LabelID) {
	t.Helper()
	gb := kb.NewBuilder()
	star := gb.MustLabel("starring", true)
	spouse := gb.MustLabel("spouse", false)
	dir := gb.MustLabel("directed_by", true)
	g := gb.Build()
	return g, star, spouse, dir
}

func TestNewValidation(t *testing.T) {
	g, star, _, _ := testSchema(t)
	if _, err := New(g, 1, nil); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := New(g, MaxVars+1, nil); err == nil {
		t.Error("n beyond MaxVars accepted")
	}
	if _, err := New(g, 3, []Edge{{U: 2, V: 2, Label: star}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := New(g, 3, []Edge{{U: 0, V: 5, Label: star}}); err == nil {
		t.Error("out-of-range variable accepted")
	}
	if _, err := New(g, 2, []Edge{{U: Start, V: End, Label: star}}); err != nil {
		t.Errorf("minimal valid pattern rejected: %v", err)
	}
}

func TestNewNormalisesUndirected(t *testing.T) {
	g, _, spouse, _ := testSchema(t)
	p := MustNew(g, 3, []Edge{{U: 2, V: Start, Label: spouse}})
	e := p.Edges()[0]
	if e.U != Start || e.V != 2 {
		t.Fatalf("undirected edge not normalised: %+v", e)
	}
}

func TestNewDedupsEdges(t *testing.T) {
	g, star, spouse, _ := testSchema(t)
	p := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: Start, Label: star},   // exact duplicate
		{U: Start, V: 2, Label: spouse}, // undirected, one orientation
		{U: 2, V: Start, Label: spouse}, // same edge, other orientation
	})
	if p.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (%v)", p.NumEdges(), p.Edges())
	}
}

func TestDirectedOrientationDistinct(t *testing.T) {
	g, star, _, _ := testSchema(t)
	p := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star},
		{U: Start, V: 2, Label: star}, // reverse orientation is distinct
	})
	if p.NumEdges() != 2 {
		t.Fatalf("directed reverse orientation merged: %v", p.Edges())
	}
}

func TestIsPath(t *testing.T) {
	g, star, spouse, _ := testSchema(t)
	cases := []struct {
		name string
		p    *Pattern
		want bool
	}{
		{"direct edge", MustNew(g, 2, []Edge{{U: Start, V: End, Label: spouse}}), true},
		{"two-hop", MustNew(g, 3, []Edge{
			{U: 2, V: Start, Label: star}, {U: 2, V: End, Label: star},
		}), true},
		{"double edge between targets", MustNew(g, 2, []Edge{
			{U: Start, V: End, Label: spouse}, {U: Start, V: End, Label: star},
		}), false},
		{"triangle extra edge", MustNew(g, 3, []Edge{
			{U: 2, V: Start, Label: star}, {U: 2, V: End, Label: star},
			{U: Start, V: End, Label: spouse},
		}), false},
		{"costar+produce", MustNew(g, 3, []Edge{
			{U: 2, V: Start, Label: star}, {U: 2, V: End, Label: star},
			{U: 2, V: Start, Label: kb.LabelID(2)},
		}), false},
	}
	for _, tc := range cases {
		if got := tc.p.IsPath(); got != tc.want {
			t.Errorf("%s: IsPath = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDegree(t *testing.T) {
	g, star, _, dir := testSchema(t)
	p := MustNew(g, 4, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 2, V: 3, Label: dir},
	})
	if p.Degree(2) != 3 || p.Degree(Start) != 1 || p.Degree(3) != 1 {
		t.Fatalf("degrees: %d %d %d", p.Degree(2), p.Degree(Start), p.Degree(3))
	}
}

func TestStringRendering(t *testing.T) {
	g, star, spouse, _ := testSchema(t)
	p := MustNew(g, 3, []Edge{
		{U: Start, V: End, Label: spouse},
		{U: 2, V: Start, Label: star},
	})
	s := p.String()
	if !strings.Contains(s, "spouse") || !strings.Contains(s, "starring") {
		t.Fatalf("String() missing labels: %s", s)
	}
	if !strings.Contains(s, "->") {
		t.Fatalf("directed edge should render an arrow: %s", s)
	}
}

func TestDescribeWithInstance(t *testing.T) {
	g, star, _, _ := testSchema(t)
	sb := kb.NewBuilderFrom(g)
	a := sb.AddNode("film1", "film")
	b := sb.AddNode("alice", "actor")
	c := sb.AddNode("bob", "actor")
	sb.MustAddEdge(a, b, star)
	sb.MustAddEdge(a, c, star)
	g = sb.Build()
	p := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star}, {U: 2, V: End, Label: star},
	})
	desc := p.Describe(g, Instance{b, c, a})
	if !strings.Contains(desc, "film1") || !strings.Contains(desc, "alice") {
		t.Fatalf("Describe missing entity names: %s", desc)
	}
	// Without an instance it falls back to variable names.
	if d := p.Describe(g, nil); !strings.Contains(d, "start") {
		t.Fatalf("variable fallback broken: %s", d)
	}
}
