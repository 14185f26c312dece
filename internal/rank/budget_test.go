package rank

import (
	"context"
	"math"
	"testing"
	"time"

	"rex/internal/enumerate"
	"rex/internal/measure"
	"rex/internal/pattern"
)

// cutScore is what a stalled evaluation returns: a score no real
// evaluation yields, standing for the incomplete value an evaluation
// that its context cut short may leave behind.
var cutScore = measure.Score{math.MaxFloat64, math.MaxFloat64}

// stall scores as its Limited measure does, except that its n-th
// evaluation (Score or ScoreWithLimit) calls onStall, if set, waits for
// the evaluation's context to end and returns cutScore.
type stall struct {
	measure.Limited
	n, calls int
	onStall  func()
}

func (m *stall) stalls(ctx *measure.Context) bool {
	m.calls++
	if m.calls != m.n {
		return false
	}
	if m.onStall != nil {
		m.onStall()
	}
	<-ctx.Ctx.Done()
	return true
}

func (m *stall) Score(ctx *measure.Context, ex *pattern.Explanation) measure.Score {
	if m.stalls(ctx) {
		return cutScore
	}
	return m.Limited.Score(ctx, ex)
}

func (m *stall) ScoreWithLimit(ctx *measure.Context, ex *pattern.Explanation, threshold measure.Score) (measure.Score, bool) {
	if m.stalls(ctx) {
		return cutScore, true
	}
	return m.Limited.ScoreWithLimit(ctx, ex, threshold)
}

// TestRankersTruncateAtBudget holds every ranker to the anytime
// contract with a measure whose n-th evaluation is cut short, early and
// midway (for the anti-monotone ranker, midway is in the expansion
// rounds). When a WithDeadline budget ends during that evaluation the
// ranking is truncated without error, the cut score is discarded, and
// every returned score is the explanation's unbudgeted score. When the
// caller cancels during it, or the caller's own deadline has passed
// under a generous budget, the ranking fails with ctx.Err().
func TestRankersTruncateAtBudget(t *testing.T) {
	g, s, e, _ := setup(t, "brad_pitt", "angelina_jolie")
	bg := context.Background()
	all, _, err := enumerate.ExplanationsBudgeted(bg, g, s, e, rankCfg)
	if err != nil {
		t.Fatal(err)
	}
	paths, _, err := enumerate.PathsBudgeted(bg, g, s, e, rankCfg)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	dist := measure.Combined{Primary: measure.Size{}, Secondary: measure.LocalPosition{}}
	mono := measure.Combined{Primary: measure.Size{}, Secondary: measure.Monocount{}}
	for _, tc := range []struct {
		name    string
		m       measure.Limited
		stallAt []int
		run     func(ctx context.Context, mctx *measure.Context, m measure.Limited) ([]Ranked, bool, error)
	}{
		{"general", dist, []int{1, len(all) / 2}, func(ctx context.Context, mctx *measure.Context, m measure.Limited) ([]Ranked, bool, error) {
			return GeneralBudgeted(ctx, mctx, all, m, k)
		}},
		{"distributional", dist, []int{1, len(all) / 2}, func(ctx context.Context, mctx *measure.Context, m measure.Limited) ([]Ranked, bool, error) {
			return TopKDistributionalBudgeted(ctx, mctx, all, m, k, time.Time{})
		}},
		{"anti-monotone", mono, []int{1, len(paths) + 2}, func(ctx context.Context, mctx *measure.Context, m measure.Limited) ([]Ranked, bool, error) {
			return TopKAntiMonotoneBudgeted(ctx, g, s, e, rankCfg, mctx, m, k)
		}},
	} {
		unbudgeted := map[pattern.Key]measure.Score{}
		ref, _, _ := GeneralBudgeted(bg, &measure.Context{G: g, Start: s, End: e}, all, tc.m, 0)
		for _, r := range ref {
			unbudgeted[r.Ex.P.Key()] = r.Score
		}
		rank := func(ctx context.Context, m *stall) ([]Ranked, bool, error) {
			return tc.run(ctx, &measure.Context{G: g, Start: s, End: e, Ctx: ctx}, m)
		}
		for _, n := range tc.stallAt {
			// The budget has to outlast the n-1 evaluations before the
			// stall; on a slow host it is retried with twice the time.
			for wait := 20 * time.Millisecond; ; wait *= 2 {
				ctx, cancel := enumerate.WithDeadline(bg, time.Now().Add(wait))
				m := &stall{Limited: tc.m, n: n}
				got, truncated, err := rank(ctx, m)
				cancel()
				if m.calls < n {
					if wait > 5*time.Second {
						t.Fatalf("%s: the budget ended before evaluation %d every time", tc.name, n)
					}
					continue
				}
				if err != nil || !truncated {
					t.Fatalf("%s, budget ends in evaluation %d: truncated=%v err %v; want a truncated ranking", tc.name, n, truncated, err)
				}
				for i, r := range got {
					if r.Score.Cmp(cutScore) == 0 {
						t.Fatalf("%s, budget ends in evaluation %d: the cut score is ranked %d", tc.name, n, i)
					}
					if want, ok := unbudgeted[r.Ex.P.Key()]; !ok || r.Score.Cmp(want) != 0 {
						t.Fatalf("%s, budget ends in evaluation %d: rank %d %v scored %v, unbudgeted %v", tc.name, n, i, r.Ex.P, r.Score, want)
					}
				}
				break
			}

			caller, cancel := context.WithCancel(bg)
			ctx, stop := enumerate.WithDeadline(caller, time.Now().Add(time.Hour))
			got, truncated, err := rank(ctx, &stall{Limited: tc.m, n: n, onStall: cancel})
			stop()
			cancel()
			if err != context.Canceled || got != nil || truncated {
				t.Fatalf("%s, caller cancels in evaluation %d: %d ranked, truncated=%v err %v; want none and context.Canceled", tc.name, n, len(got), truncated, err)
			}
		}

		caller, cancel := context.WithDeadline(bg, time.Now().Add(-time.Second))
		ctx, stop := enumerate.WithDeadline(caller, time.Now().Add(time.Hour))
		got, truncated, err := rank(ctx, &stall{Limited: tc.m})
		stop()
		cancel()
		if err != context.DeadlineExceeded || got != nil || truncated {
			t.Fatalf("%s, caller's deadline passed: %d ranked, truncated=%v err %v; want none and context.DeadlineExceeded", tc.name, len(got), truncated, err)
		}
	}
}
