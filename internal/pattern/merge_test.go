package pattern

import (
	"testing"

	"rex/internal/kb"
)

// winsletGraph builds the Figure 6 neighbourhood: Kate Winslet and
// Leonardo DiCaprio co-star in Titanic and Revolutionary Road; Sam
// Mendes directed Revolutionary Road and (for the same-director path)
// Jarhead, which stars DiCaprio in this test fixture.
func winsletGraph(t *testing.T) (*kb.Graph, map[string]kb.NodeID, kb.LabelID, kb.LabelID) {
	t.Helper()
	gb := kb.NewBuilder()
	ids := map[string]kb.NodeID{}
	for _, n := range []struct{ name, typ string }{
		{"kate", "actor"}, {"leo", "actor"}, {"mendes", "director"},
		{"titanic", "film"}, {"revroad", "film"}, {"jarhead", "film"},
	} {
		ids[n.name] = gb.AddNode(n.name, n.typ)
	}
	star := gb.MustLabel("starring", true)
	dir := gb.MustLabel("directed_by", true)
	gb.MustAddEdge(ids["titanic"], ids["kate"], star)
	gb.MustAddEdge(ids["titanic"], ids["leo"], star)
	gb.MustAddEdge(ids["revroad"], ids["kate"], star)
	gb.MustAddEdge(ids["revroad"], ids["leo"], star)
	gb.MustAddEdge(ids["revroad"], ids["mendes"], dir)
	gb.MustAddEdge(ids["jarhead"], ids["leo"], star)
	gb.MustAddEdge(ids["jarhead"], ids["mendes"], dir)
	g := gb.Build()
	return g, ids, star, dir
}

// figure6Paths builds the two covering path explanations of Example 4/5:
// p1 the co-starring path (Figure 6(b)) and p2 the same-director path
// (Figure 6(c)): start ←star— v2 —dir→ v3 ←dir— v4 —star→ end.
func figure6Paths(t *testing.T) (*kb.Graph, map[string]kb.NodeID, *Explanation, *Explanation) {
	t.Helper()
	g, ids, star, dir := winsletGraph(t)
	kate, leo := ids["kate"], ids["leo"]
	p1 := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
	})
	re1 := NewExplanation(p1, []Instance{
		{kate, leo, ids["titanic"]},
		{kate, leo, ids["revroad"]},
	})
	p2 := MustNew(g, 5, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: 3, Label: dir},
		{U: 4, V: 3, Label: dir},
		{U: 4, V: End, Label: star},
	})
	re2 := NewExplanation(p2, []Instance{
		{kate, leo, ids["revroad"], ids["mendes"], ids["jarhead"]},
	})
	return g, ids, re1, re2
}

// TestMergeFigure6 reproduces Example 5: merging the co-starring path
// with the same-director path under the mapping that unifies the film
// variables yields the Figure 6(a) combined pattern, whose instances are
// computed by joining the covering paths' instances.
func TestMergeFigure6(t *testing.T) {
	g, ids, re1, re2 := figure6Paths(t)
	kate, leo := ids["kate"], ids["leo"]

	merged := Merge(re1, re2, 5)
	if len(merged) == 0 {
		t.Fatal("no merge results")
	}
	// The only instance-supported mapping unifies p1.v2 (the co-starred
	// film) with p2's start-side film: both bind revolutionary road. The
	// result is the 5-variable Figure 6(a) pattern: kate and leo co-star
	// in v2, which mendes (v3) directed, and mendes also directed v4
	// starring leo.
	want := MustNew(g, 5, []Edge{
		{U: 2, V: Start, Label: re1.P.Edges()[0].Label},
		{U: 2, V: End, Label: re1.P.Edges()[0].Label},
		{U: 2, V: 3, Label: re2.P.Edges()[1].Label},
		{U: 4, V: 3, Label: re2.P.Edges()[1].Label},
		{U: 4, V: End, Label: re1.P.Edges()[0].Label},
	})
	found := false
	for _, m := range merged {
		if !m.P.Minimal() {
			t.Errorf("non-minimal merge result %v", m.P)
		}
		if err := m.Validate(g, kate, leo); err != nil {
			t.Errorf("invalid merged instances: %v", err)
		}
		if m.P.Isomorphic(want) {
			found = true
			if len(m.Instances) != 1 {
				t.Errorf("Figure 6(a) pattern: %d instances, want 1", len(m.Instances))
			}
		}
	}
	if !found {
		t.Error("merge never produced the Figure 6(a) pattern")
	}
}

func TestMergeRespectsMaxVars(t *testing.T) {
	g, ids, star, dir := winsletGraph(t)
	kate, leo := ids["kate"], ids["leo"]
	p2 := MustNew(g, 4, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 2, V: 3, Label: dir},
	})
	re2 := NewExplanation(p2, []Instance{{kate, leo, ids["revroad"], ids["mendes"]}})
	for _, m := range Merge(re2, re2, 4) {
		if m.P.NumVars() > 4 {
			t.Errorf("merge produced %d vars beyond limit", m.P.NumVars())
		}
	}
}

func TestMergeNeedsFreeVariables(t *testing.T) {
	g, ids, _, _ := winsletGraph(t)
	sb := kb.NewBuilderFrom(g)
	spouse := sb.MustLabel("spouse", false)
	g = sb.Build()
	p := MustNew(g, 2, []Edge{{U: Start, V: End, Label: spouse}})
	re := NewExplanation(p, []Instance{{ids["kate"], ids["mendes"]}})
	if got := Merge(re, re, 5); got != nil {
		t.Errorf("direct-edge explanations must not merge, got %d results", len(got))
	}
}

func TestMergeSelfIsMinimal(t *testing.T) {
	// Merging the co-starring path with itself: the only supported
	// mapping unifies the film variables (yielding a duplicate of the
	// input, discarded later by the union's duplication check) — keeping
	// them separate is decomposable and must not be produced.
	g, ids, re1, _ := figure6Paths(t)
	kate, leo := ids["kate"], ids["leo"]
	for _, m := range Merge(re1, re1, 5) {
		if !m.P.Minimal() {
			t.Errorf("merge produced non-minimal pattern %v", m.P)
		}
		if err := m.Validate(g, kate, leo); err != nil {
			t.Errorf("merge instance invalid: %v", err)
		}
		if m.P.NumVars() != 3 {
			t.Errorf("self-merge of the co-star wedge must keep 3 vars, got %v", m.P)
		}
	}
}

func TestFromPathInstanceOrientations(t *testing.T) {
	g, ids, star, dir := winsletGraph(t)
	// Path kate ←star– titanic –star→ leo at the instance level: steps
	// are half-edges from each node. kate's half-edge to titanic is In
	// (edge titanic→kate), titanic's half-edge to leo is Out.
	nodes := []kb.NodeID{ids["kate"], ids["titanic"], ids["leo"]}
	steps := []kb.HalfEdge{
		{To: ids["titanic"], Label: star, Dir: kb.In},
		{To: ids["leo"], Label: star, Dir: kb.Out},
	}
	p, inst, err := FromPathInstance(g, nodes, steps)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star}, {U: 2, V: End, Label: star},
	})
	if !p.Isomorphic(want) {
		t.Fatalf("pattern %v, want co-star wedge", p)
	}
	if inst[Start] != ids["kate"] || inst[End] != ids["leo"] || inst[2] != ids["titanic"] {
		t.Fatalf("instance %v misassigned", inst)
	}
	// Length-mismatch error path.
	if _, _, err := FromPathInstance(g, nodes, steps[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
	_ = dir
}
