package pattern

import (
	"testing"
	"testing/quick"

	"rex/internal/kb"
)

func TestInstanceKeyDistinguishes(t *testing.T) {
	a := Instance{1, 2, 3}
	b := Instance{1, 2, 4}
	c := Instance{1, 2, 3}
	if a.Key() == b.Key() {
		t.Error("different instances share a key")
	}
	if a.Key() != c.Key() {
		t.Error("equal instances have different keys")
	}
}

func TestQuickInstanceKeyInjective(t *testing.T) {
	f := func(a, b []int32) bool {
		// Instances are bounded by MaxVars variables by construction
		// (pattern.New enforces it); InstanceKey relies on that bound.
		if len(a) > MaxVars {
			a = a[:MaxVars]
		}
		if len(b) > MaxVars {
			b = b[:MaxVars]
		}
		ia := make(Instance, len(a))
		for i, v := range a {
			ia[i] = kb.NodeID(v)
		}
		ib := make(Instance, len(b))
		for i, v := range b {
			ib[i] = kb.NodeID(v)
		}
		// Keys equal iff instances equal (same length, same values).
		keysEqual := ia.Key() == ib.Key()
		valsEqual := len(ia) == len(ib)
		if valsEqual {
			for i := range ia {
				if ia[i] != ib[i] {
					valsEqual = false
					break
				}
			}
		}
		return keysEqual == valsEqual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Instance{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestNewExplanationDedups(t *testing.T) {
	g, star, _, _ := testSchema(t)
	p := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star}, {U: 2, V: End, Label: star},
	})
	ex := NewExplanation(p, []Instance{
		{0, 1, 2}, {0, 1, 2}, {0, 1, 3},
	})
	if ex.Count() != 2 {
		t.Fatalf("Count = %d, want 2", ex.Count())
	}
}

func TestUniqueAssignmentsAndMonocount(t *testing.T) {
	// Example 6: v1 → director, v2 → film. With instances
	// (mendes, revroad) and (mendes, revroad2): uniq(v1)=1, uniq(v2)=2,
	// monocount = 1 while count = 2.
	g, star, _, dir := testSchema(t)
	p := MustNew(g, 4, []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 2, V: 3, Label: dir},
	})
	ex := NewExplanation(p, []Instance{
		{10, 11, 20, 30}, // film 20, director 30
		{10, 11, 21, 30}, // film 21, same director
	})
	if got := ex.UniqueAssignments(3); got != 1 {
		t.Errorf("uniq(v3) = %d, want 1", got)
	}
	if got := ex.UniqueAssignments(2); got != 2 {
		t.Errorf("uniq(v2) = %d, want 2", got)
	}
	if got := ex.Monocount(); got != 1 {
		t.Errorf("monocount = %d, want 1", got)
	}
	if got := ex.Count(); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	_ = star
}

func TestMonocountDirectEdgeOverride(t *testing.T) {
	g, _, spouse, _ := testSchema(t)
	p := MustNew(g, 2, []Edge{{U: Start, V: End, Label: spouse}})
	ex := NewExplanation(p, []Instance{{0, 1}})
	if got := ex.Monocount(); got != 1 {
		t.Errorf("direct-edge monocount = %d, want 1 (paper override)", got)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	gb := kb.NewBuilder()
	film := gb.AddNode("film", "film")
	alice := gb.AddNode("alice", "actor")
	bob := gb.AddNode("bob", "actor")
	other := gb.AddNode("other", "actor")
	star := gb.MustLabel("starring", true)
	gb.MustAddEdge(film, alice, star)
	gb.MustAddEdge(film, bob, star)
	g := gb.Build()

	p := MustNew(g, 3, []Edge{
		{U: 2, V: Start, Label: star}, {U: 2, V: End, Label: star},
	})
	good := NewExplanation(p, []Instance{{alice, bob, film}})
	if err := good.Validate(g, alice, bob); err != nil {
		t.Fatalf("valid explanation rejected: %v", err)
	}

	cases := []struct {
		name string
		ex   *Explanation
	}{
		{"wrong arity", &Explanation{P: p, Instances: []Instance{{alice, bob}}}},
		{"wrong targets", &Explanation{P: p, Instances: []Instance{{bob, alice, film}}}},
		{"missing edge", &Explanation{P: p, Instances: []Instance{{alice, bob, other}}}},
		{"non-target on target", &Explanation{P: p, Instances: []Instance{{alice, bob, alice}}}},
	}
	for _, tc := range cases {
		if err := tc.ex.Validate(g, alice, bob); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}
