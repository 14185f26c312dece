package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rex/internal/kb"
)

func TestCanonicalKeyIsomorphicVariants(t *testing.T) {
	g, star, _, dir := testSchema(t)
	// The same "co-star in a film directed by someone" shape with the
	// two free variables numbered both ways.
	p1 := MustNew(g, 4, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 2, V: 3, Label: dir},
	})
	p2 := MustNew(g, 4, []Edge{
		{U: 3, V: Start, Label: star},
		{U: 3, V: End, Label: star},
		{U: 3, V: 2, Label: dir},
	})
	if p1.CanonicalKey() != p2.CanonicalKey() {
		t.Error("isomorphic patterns got different canonical keys")
	}
	if !p1.Isomorphic(p2) {
		t.Error("Isomorphic() disagrees")
	}
}

func TestCanonicalKeyTargetsPinned(t *testing.T) {
	g, star, _, _ := testSchema(t)
	// start←film→end with producing on the START side vs the END side:
	// mirror images, but targets are pinned, so NOT isomorphic.
	sb := kb.NewBuilderFrom(g)
	prod := sb.MustLabel("produced_by", true)
	g = sb.Build()
	pStart := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 2, V: Start, Label: prod},
	})
	pEnd := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 2, V: End, Label: prod},
	})
	if pStart.CanonicalKey() == pEnd.CanonicalKey() {
		t.Error("mirror patterns must differ when targets are pinned")
	}
}

func TestCanonicalKeyDifferentLabelsDiffer(t *testing.T) {
	g, star, spouse, _ := testSchema(t)
	p1 := MustNew(g, 2, []Edge{{U: Start, V: End, Label: spouse}})
	p2 := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star}, {U: 2, V: End, Label: star},
	})
	if p1.CanonicalKey() == p2.CanonicalKey() {
		t.Error("different patterns share a canonical key")
	}
	if p1.Isomorphic(p2) {
		t.Error("different-size patterns reported isomorphic")
	}
}

func TestCanonicalPermIsValidRenaming(t *testing.T) {
	g, star, _, dir := testSchema(t)
	p := MustNew(g, 5, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 3, V: Start, Label: star},
		{U: 3, V: 4, Label: dir},
		{U: 2, V: 4, Label: dir},
		{U: 3, V: End, Label: star},
	})
	perm := p.CanonicalPerm()
	if perm[Start] != Start || perm[End] != End {
		t.Fatal("targets must map to themselves")
	}
	seen := make(map[VarID]bool)
	for _, v := range perm {
		if seen[v] {
			t.Fatalf("perm not a bijection: %v", perm)
		}
		seen[v] = true
	}
	// Renaming the pattern by its canonical perm must preserve the key.
	renamed := make([]Edge, 0, p.NumEdges())
	for _, e := range p.Edges() {
		renamed = append(renamed, Edge{U: perm[e.U], V: perm[e.V], Label: e.Label})
	}
	q := MustNew(g, p.NumVars(), renamed)
	if q.CanonicalKey() != p.CanonicalKey() {
		t.Error("canonical renaming changed the canonical key")
	}
}

// randomPattern builds a connected-ish random pattern over the schema.
func randomPattern(g *kb.Graph, labels []kb.LabelID, rng *rand.Rand) *Pattern {
	n := 2 + rng.Intn(4) // 2..5 vars
	var edges []Edge
	// Chain everything to guarantee validity, then sprinkle extras.
	order := rng.Perm(n)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{
			U:     VarID(order[i-1]),
			V:     VarID(order[i]),
			Label: labels[rng.Intn(len(labels))],
		})
	}
	extra := rng.Intn(3)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: VarID(u), V: VarID(v), Label: labels[rng.Intn(len(labels))]})
	}
	p, err := New(g, n, edges)
	if err != nil {
		panic(err)
	}
	return p
}

// TestQuickCanonicalInvariantUnderRelabeling property-checks the core
// canonicalisation guarantee: renaming free variables by any permutation
// leaves the canonical key unchanged.
func TestQuickCanonicalInvariantUnderRelabeling(t *testing.T) {
	gb := kb.NewBuilder()
	labels := []kb.LabelID{
		gb.MustLabel("d1", true), gb.MustLabel("d2", true), gb.MustLabel("u1", false),
	}
	g := gb.Build()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPattern(g, labels, rng)
		n := p.NumVars()
		if n <= 2 {
			return true
		}
		// Random permutation of free variables.
		freePerm := rng.Perm(n - 2)
		rename := func(v VarID) VarID {
			if v < 2 {
				return v
			}
			return VarID(freePerm[v-2] + 2)
		}
		var renamed []Edge
		for _, e := range p.Edges() {
			renamed = append(renamed, Edge{U: rename(e.U), V: rename(e.V), Label: e.Label})
		}
		q, err := New(g, n, renamed)
		if err != nil {
			return false
		}
		return q.CanonicalKey() == p.CanonicalKey() && p.Isomorphic(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCanonicalSeparatesLabels property-checks that changing one
// edge's label changes the canonical key.
func TestQuickCanonicalSeparatesLabels(t *testing.T) {
	gb := kb.NewBuilder()
	labels := []kb.LabelID{gb.MustLabel("d1", true), gb.MustLabel("d2", true)}
	g := gb.Build()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPattern(g, labels[:1], rng) // all edges labeled d1
		// Flip one edge to d2.
		edges := append([]Edge{}, p.Edges()...)
		edges[rng.Intn(len(edges))].Label = labels[1]
		q, err := New(g, p.NumVars(), edges)
		if err != nil {
			return false
		}
		// q now has at least one d2 edge while p has none; keys differ.
		return q.CanonicalKey() != p.CanonicalKey()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
