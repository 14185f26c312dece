package enumerate

import (
	"context"
	"testing"
	"time"

	"rex/internal/kbgen"
	"rex/internal/pattern"
)

// explanationSets indexes an explanation list by canonical pattern key,
// mapping to the set of instance keys, for subset comparisons.
func explanationSets(es []*pattern.Explanation) map[pattern.Key]map[pattern.InstanceKey]bool {
	out := make(map[pattern.Key]map[pattern.InstanceKey]bool, len(es))
	for _, ex := range es {
		insts := make(map[pattern.InstanceKey]bool, len(ex.Instances))
		for _, in := range ex.Instances {
			insts[in.Key()] = true
		}
		out[ex.P.Key()] = insts
	}
	return out
}

// assertSubset checks that every explanation of sub appears in super
// with an instance set containing sub's.
func assertSubset(t *testing.T, label string, sub, super []*pattern.Explanation) {
	t.Helper()
	superSets := explanationSets(super)
	for _, ex := range sub {
		insts, ok := superSets[ex.P.Key()]
		if !ok {
			t.Fatalf("%s: pattern %v absent from the larger-budget result", label, ex.P)
		}
		for _, in := range ex.Instances {
			if !insts[in.Key()] {
				t.Fatalf("%s: pattern %v instance %v absent from the larger-budget result", label, ex.P, in)
			}
		}
	}
}

// TestBudgetDeadlineTruncates checks the wall-clock budget: an already-
// expired deadline truncates immediately (returning the cheap early
// paths, possibly none) without error, a generous deadline changes
// nothing, and the caller's own expired deadline under a generous budget
// is the caller's error, not a truncation.
func TestBudgetDeadlineTruncates(t *testing.T) {
	g := kbgen.Sample()
	s := g.NodeByName("brad_pitt")
	e := g.NodeByName("angelina_jolie")
	cfg := Config{MaxPatternSize: 5}
	ctx := context.Background()

	expired, cancel := WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	es, truncated, err := ExplanationsBudgeted(expired, g, s, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("expired deadline did not truncate")
	}

	full, _, err := ExplanationsBudgeted(ctx, g, s, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSubset(t, "expired deadline", es, full)

	es, truncated, err = ExplanationsBudgeted(neverExpires(t, ctx), g, s, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("generous deadline truncated")
	}
	if len(es) != len(full) {
		t.Fatalf("generous deadline: %d explanations, unbudgeted %d", len(es), len(full))
	}

	late, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	es, truncated, err = ExplanationsBudgeted(neverExpires(t, late), g, s, e, cfg)
	if err != context.DeadlineExceeded || es != nil || truncated {
		t.Fatalf("caller's expired deadline under a budget: %d explanations, truncated=%v err %v; want none and context.DeadlineExceeded", len(es), truncated, err)
	}
}
