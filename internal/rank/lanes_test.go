package rank

import (
	"context"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/measure"
	"rex/internal/obs"
)

// workPairs draws the benchmark's pair set from kbgen medium at seed
// 42: 11 pairs per connectedness bucket at pair seed 43.
func workPairs(t *testing.T) (*kb.Graph, []kbgen.Pair) {
	t.Helper()
	opt, err := kbgen.PresetOptions("medium", 42)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(opt)
	return g, kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: 11, Seed: 43})
}

// laneWork is the work a ranking's evaluations did, from its trace.
type laneWork struct {
	evals, counted, bindings, walkSteps int64
}

// TestRankLanes holds the two-lane ranking to the one-lane one on
// medium's 33 work pairs under the default measure: at k = 1, 3, 10 and
// 50 both rank, explanation by explanation, what GeneralBudgeted's top k
// ranks, and five two-lane runs do the same work to the count, because
// each explanation's threshold depends on its index and not on the lane
// that scores it. Under -short or the race detector it ranks every
// sixth pair and repeats the two-lane run twice.
func TestRankLanes(t *testing.T) {
	atLeastTwoCores(t)
	g, pairs := workPairs(t)
	if len(pairs) != 33 {
		t.Fatalf("%d work pairs, want 33", len(pairs))
	}
	runs := 5
	if testing.Short() || raceEnabled {
		var some []kbgen.Pair
		for i := 0; i < len(pairs); i += 6 {
			some = append(some, pairs[i])
		}
		pairs, runs = some, 2
	}
	m := measure.Combined{Primary: measure.Size{}, Secondary: measure.LocalPosition{}}
	bg := context.Background()
	for _, p := range pairs {
		name := g.NodeName(p.Start) + "->" + g.NodeName(p.End)
		es, _, err := enumerate.ExplanationsBudgeted(bg, g, p.Start, p.End, rankCfg)
		if err != nil {
			t.Fatal(err)
		}
		mctx := &measure.Context{G: g, Start: p.Start, End: p.End}
		all, _, err := GeneralBudgeted(bg, mctx, es, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		rank := func(k, lanes int) ([]Ranked, laneWork) {
			tr := obs.NewTrace()
			ctx := obs.NewContext(bg, tr)
			rs, err := score(ctx, &measure.Context{G: g, Start: p.Start, End: p.End, Ctx: ctx}, es, m, m, k, lanes)
			if err != nil {
				t.Fatalf("%s, k=%d, %d lanes: %v", name, k, lanes, err)
			}
			rep := tr.Report()
			w := laneWork{counted: rep.Counted, bindings: rep.Bindings, walkSteps: rep.WalkSteps}
			for _, st := range rep.Stages {
				if st.Stage == obs.StageMeasure.String() {
					if st.Calls != st.Items {
						t.Fatalf("%s, k=%d, %d lanes: measure calls %d, items %d", name, k, lanes, st.Calls, st.Items)
					}
					w.evals = st.Calls
				}
			}
			if w.evals != int64(len(es)) {
				t.Fatalf("%s, k=%d, %d lanes: %d evaluations of %d explanations", name, k, lanes, w.evals, len(es))
			}
			return rs, w
		}
		for _, k := range []int{1, 3, 10, 50} {
			want := all[:min(k, len(all))]
			one, _ := rank(k, 1)
			assertSameRanking(t, name+" one lane", want, one)
			var first laneWork
			for run := range runs {
				two, w := rank(k, 2)
				assertSameRanking(t, name+" two lanes", want, two)
				if run == 0 {
					first = w
				} else if w != first {
					t.Fatalf("%s, k=%d: two-lane run %d did %+v, run 0 %+v", name, k, run, w, first)
				}
			}
		}
	}
}
