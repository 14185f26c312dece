package rank

import (
	"context"
	"testing"
	"time"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/measure"
)

var rankCfg = enumerate.Config{}

func setup(t *testing.T, start, end string) (*kb.Graph, kb.NodeID, kb.NodeID, *measure.Context) {
	t.Helper()
	g := kbgen.Sample()
	s := g.NodeByName(start)
	e := g.NodeByName(end)
	if s == kb.InvalidNode || e == kb.InvalidNode {
		t.Fatalf("missing entities %s/%s", start, end)
	}
	return g, s, e, &measure.Context{G: g, Start: s, End: e}
}

var rankPairs = [][2]string{
	{"brad_pitt", "angelina_jolie"},
	{"kate_winslet", "leonardo_dicaprio"},
	{"tom_cruise", "will_smith"},
	{"brad_pitt", "julia_roberts"},
}

func assertSameRanking(t *testing.T, name string, want, got []Ranked) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d vs %d results", name, len(want), len(got))
		return
	}
	for i := range want {
		if want[i].Ex.P.CanonicalKey() != got[i].Ex.P.CanonicalKey() {
			t.Errorf("%s: rank %d differs: %v vs %v", name, i, want[i].Ex.P, got[i].Ex.P)
			return
		}
		if want[i].Score.Cmp(got[i].Score) != 0 {
			t.Errorf("%s: rank %d score differs: %v vs %v", name, i, want[i].Score, got[i].Score)
			return
		}
	}
}

// TestTopKAntiMonotoneEqualsGeneral is the correctness test for the
// Theorem 4 pruning: interleaved top-k ranking must return exactly what
// full enumeration plus sorting returns, for every anti-monotonic
// measure and several k.
func TestTopKAntiMonotoneEqualsGeneral(t *testing.T) {
	for _, pairNames := range rankPairs {
		g, s, e, ctx := setup(t, pairNames[0], pairNames[1])
		all, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, rankCfg)
		for _, m := range []measure.Measure{
			measure.Monocount{},
			measure.Size{},
			measure.Combined{Primary: measure.Size{}, Secondary: measure.Monocount{}},
		} {
			for _, k := range []int{1, 3, 10, 100} {
				want, _, _ := GeneralBudgeted(context.Background(), ctx, all, m, k)
				got, _, _ := TopKAntiMonotoneBudgeted(context.Background(), g, s, e, rankCfg, ctx, m, k)
				assertSameRanking(t, pairNames[0]+"/"+pairNames[1]+" "+m.Name(), want, got)
			}
		}
	}
}

// TestTopKDistributionalEqualsGeneral checks the LIMIT-style pruning for
// the distributional measures and their combinations.
func TestTopKDistributionalEqualsGeneral(t *testing.T) {
	for _, pairNames := range rankPairs {
		g, s, e, ctx := setup(t, pairNames[0], pairNames[1])
		ctx.SampleStarts = measure.SampleStarts(g, 15, 3)
		all, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, rankCfg)
		for _, m := range []measure.Limited{
			measure.LocalPosition{},
			measure.GlobalPosition{},
			measure.Combined{Primary: measure.Size{}, Secondary: measure.LocalPosition{}},
		} {
			for _, k := range []int{1, 5, 10} {
				want, _, _ := GeneralBudgeted(context.Background(), ctx, all, m, k)
				got, _, _ := TopKDistributionalBudgeted(context.Background(), ctx, all, m, k, time.Time{})
				assertSameRanking(t, pairNames[0]+"/"+pairNames[1]+" "+m.Name(), want, got)
			}
		}
	}
}

// TestGeneralDeterministic checks stable ordering under ties.
func TestGeneralDeterministic(t *testing.T) {
	g, s, e, ctx := setup(t, "brad_pitt", "angelina_jolie")
	all, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, rankCfg)
	a, _, _ := GeneralBudgeted(context.Background(), ctx, all, measure.Size{}, 0)
	b, _, _ := GeneralBudgeted(context.Background(), ctx, all, measure.Size{}, 0)
	assertSameRanking(t, "determinism", a, b)
	// Scores must be non-increasing.
	for i := 1; i < len(a); i++ {
		if a[i-1].Score.Less(a[i].Score) {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
}

// TestGeneralCutsAtK checks the k boundary behaviour.
func TestGeneralCutsAtK(t *testing.T) {
	g, s, e, ctx := setup(t, "brad_pitt", "angelina_jolie")
	all, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, rankCfg)
	if len(all) < 4 {
		t.Fatalf("want several explanations, got %d", len(all))
	}
	general := func(k int) []Ranked {
		rs, _, _ := GeneralBudgeted(context.Background(), ctx, all, measure.Size{}, k)
		return rs
	}
	if got := general(3); len(got) != 3 {
		t.Fatalf("k=3 returned %d", len(got))
	}
	if got := general(0); len(got) != len(all) {
		t.Fatalf("k=0 should return all, got %d/%d", len(got), len(all))
	}
	if got := general(len(all) + 10); len(got) != len(all) {
		t.Fatalf("k beyond size returned %d", len(got))
	}
}

// TestTopKAntiMonotoneSparsePair exercises the edge case of a pair with
// very few explanations.
func TestTopKAntiMonotoneSparsePair(t *testing.T) {
	g, s, e, ctx := setup(t, "will_smith", "jada_pinkett_smith")
	got, _, _ := TopKAntiMonotoneBudgeted(context.Background(), g, s, e, rankCfg, ctx, measure.Monocount{}, 10)
	all, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, rankCfg)
	want, _, _ := GeneralBudgeted(context.Background(), ctx, all, measure.Monocount{}, 10)
	assertSameRanking(t, "sparse pair", want, got)
}

// TestRankingUnchangedByEvaluator pins at the ranking level that
// measure.Context.Eval is ignored: with an Evaluator in the context,
// both pruned rankers still return exactly what full enumeration plus
// sorting returns without one.
func TestRankingUnchangedByEvaluator(t *testing.T) {
	for _, pairNames := range rankPairs {
		g, s, e, ctx := setup(t, pairNames[0], pairNames[1])
		ctx.SampleStarts = measure.SampleStarts(g, 15, 3)
		evCtx := &measure.Context{G: g, Start: s, End: e, SampleStarts: ctx.SampleStarts, Eval: measure.NewEvaluator(g)}
		all, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, rankCfg)
		am := measure.Combined{Primary: measure.Size{}, Secondary: measure.Monocount{}}
		for _, k := range []int{1, 3, 10} {
			want, _, _ := GeneralBudgeted(context.Background(), ctx, all, am, k)
			got, _, _ := TopKAntiMonotoneBudgeted(context.Background(), g, s, e, rankCfg, evCtx, am, k)
			assertSameRanking(t, "eval anti-monotone k="+am.Name(), want, got)
		}
		dm := measure.Combined{Primary: measure.Size{}, Secondary: measure.LocalPosition{}}
		for _, k := range []int{1, 5, 10} {
			want, _, _ := GeneralBudgeted(context.Background(), ctx, all, dm, k)
			got, _, _ := TopKDistributionalBudgeted(context.Background(), evCtx, all, dm, k, time.Time{})
			assertSameRanking(t, "eval distributional "+dm.Name(), want, got)
		}
	}
}
