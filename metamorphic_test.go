package rex

import (
	"context"
	"slices"
	"testing"
	"time"

	"rex/internal/enumerate"
	"rex/internal/pattern"
)

// swapEnds returns the canonical key of p with its Start and End
// variables exchanged: the pattern the reversed pair should enumerate.
func swapEnds(t *testing.T, p *pattern.Pattern) string {
	t.Helper()
	swap := func(v pattern.VarID) pattern.VarID {
		switch v {
		case pattern.Start:
			return pattern.End
		case pattern.End:
			return pattern.Start
		}
		return v
	}
	edges := slices.Clone(p.Edges())
	for i := range edges {
		edges[i].U, edges[i].V = swap(edges[i].U), swap(edges[i].V)
	}
	q, err := pattern.New(p.Schema(), p.NumVars(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return q.CanonicalKey()
}

// TestPairReversal is a metamorphic relation that needs no oracle: on the
// work pairs, enumerating (a, b) and (b, a) gives the same pattern set
// with Start and End swapped, and the same instance count per pattern.
// It compares enumerated sets, not ranked answers, which break ties by
// key and whose local measures are anchored at the start. kb.PathJoin
// stores whichever endpoint is cheaper, so this also checks the side
// choice at scale. medium always runs; million with -work-million.
func TestPairReversal(t *testing.T) {
	presets := []string{"medium"}
	if *workMillion {
		presets = append(presets, "million")
	}
	ctx := context.Background()
	for _, preset := range presets {
		g, pairs := workPairs(t, preset)
		t0 := time.Now()
		patterns := 0
		for _, p := range pairs {
			a, b := g.NodeByName(p.Start), g.NodeByName(p.End)
			fwd, _, err := enumerate.ExplanationsBudgeted(ctx, g, a, b, enumerate.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rev, _, err := enumerate.ExplanationsBudgeted(ctx, g, b, a, enumerate.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string]int, len(fwd))
			for _, ex := range fwd {
				want[swapEnds(t, ex.P)] = ex.Count()
			}
			if len(rev) != len(fwd) {
				t.Errorf("%s, %s->%s: %d patterns one way, %d the other", preset, p.Start, p.End, len(fwd), len(rev))
				continue
			}
			for _, ex := range rev {
				if n, ok := want[ex.P.CanonicalKey()]; !ok || n != ex.Count() {
					t.Errorf("%s, %s->%s: reversed pattern %v has %d instances, the forward one %d (found %v)", preset, p.Start, p.End, ex.P, ex.Count(), n, ok)
				}
			}
			patterns += len(fwd)
		}
		t.Logf("%s: %d pairs, %d patterns each way, in %v", preset, len(pairs), patterns, time.Since(t0).Round(time.Millisecond))
	}
}
