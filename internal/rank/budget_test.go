package rank

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
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
// the evaluation's context to end and returns cutScore. Two lanes call
// it at once, so what it records is under mu: when each evaluation
// started, and when the stalled one saw its context end.
type stall struct {
	measure.Limited
	n       int
	onStall func()

	mu     sync.Mutex
	starts []time.Time
	ended  time.Time
}

func (m *stall) stalls(ctx *measure.Context) bool {
	start := time.Now()
	m.mu.Lock()
	m.starts = append(m.starts, start)
	stalled := len(m.starts) == m.n
	m.mu.Unlock()
	if !stalled {
		return false
	}
	if m.onStall != nil {
		m.onStall()
	}
	<-ctx.Ctx.Done()
	ended := time.Now()
	m.mu.Lock()
	m.ended = ended
	m.mu.Unlock()
	return true
}

// calls is the number of evaluations started.
func (m *stall) calls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.starts)
}

// late is the number of evaluations that started after the stalled one
// saw its context end.
func (m *stall) late() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.starts {
		if t.After(m.ended) {
			n++
		}
	}
	return n
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
// ranking is truncated without error, no evaluation starts after it, the
// cut score is discarded, and every returned score is the explanation's
// unbudgeted score; the rankers that score a list in lanes return the
// top k of an index-order prefix of it. When the caller cancels during
// it, or the caller's own deadline has passed under a generous budget,
// the ranking fails with ctx.Err(), having started no evaluation when
// the context had ended before the ranking began. It runs on at least two cores, so
// the lanes rankers run two where they can.
func TestRankersTruncateAtBudget(t *testing.T) {
	atLeastTwoCores(t)
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
		lanes   bool // scores all in lanes: a truncated ranking is the top k of a prefix of it
		run     func(ctx context.Context, mctx *measure.Context, m measure.Limited) ([]Ranked, bool, error)
	}{
		{"general", dist, []int{1, len(all) / 2}, true, func(ctx context.Context, mctx *measure.Context, m measure.Limited) ([]Ranked, bool, error) {
			return GeneralBudgeted(ctx, mctx, all, m, k)
		}},
		{"distributional", dist, []int{1, len(all) / 2}, true, func(ctx context.Context, mctx *measure.Context, m measure.Limited) ([]Ranked, bool, error) {
			return TopKDistributionalBudgeted(ctx, mctx, all, m, k, time.Time{})
		}},
		{"anti-monotone", mono, []int{1, len(paths) + 2}, false, func(ctx context.Context, mctx *measure.Context, m measure.Limited) ([]Ranked, bool, error) {
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
				if m.calls() < n {
					if wait > 5*time.Second {
						t.Fatalf("%s: the budget ended before evaluation %d every time", tc.name, n)
					}
					continue
				}
				if err != nil || !truncated {
					t.Fatalf("%s, budget ends in evaluation %d: truncated=%v err %v; want a truncated ranking", tc.name, n, truncated, err)
				}
				if late := m.late(); late > 0 {
					t.Fatalf("%s, budget ends in evaluation %d: %d evaluations started after it", tc.name, n, late)
				}
				for i, r := range got {
					if r.Score.Cmp(cutScore) == 0 {
						t.Fatalf("%s, budget ends in evaluation %d: the cut score is ranked %d", tc.name, n, i)
					}
					if want, ok := unbudgeted[r.Ex.P.Key()]; !ok || r.Score.Cmp(want) != 0 {
						t.Fatalf("%s, budget ends in evaluation %d: rank %d %v scored %v, unbudgeted %v", tc.name, n, i, r.Ex.P, r.Score, want)
					}
				}
				if tc.lanes && !topOfPrefix(all, unbudgeted, k, got) {
					t.Fatalf("%s, budget ends in evaluation %d: the %d ranked are the top %d of no prefix of the explanation list", tc.name, n, len(got), k)
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
		m := &stall{Limited: tc.m}
		got, truncated, err := rank(ctx, m)
		stop()
		cancel()
		if err != context.DeadlineExceeded || got != nil || truncated || m.calls() != 0 {
			t.Fatalf("%s, caller's deadline passed: %d ranked after %d evaluations, truncated=%v err %v; want none and context.DeadlineExceeded", tc.name, len(got), m.calls(), truncated, err)
		}
	}
}

// topOfPrefix reports whether got is, explanation by explanation, the
// top k of some index-order prefix of es under the scores in score.
func topOfPrefix(es []*pattern.Explanation, score map[pattern.Key]measure.Score, k int, got []Ranked) bool {
	for p := 0; p <= len(es); p++ {
		want := make([]Ranked, 0, p)
		for _, ex := range es[:p] {
			want = append(want, Ranked{Ex: ex, Score: score[ex.P.Key()]})
		}
		sortRanked(want)
		want = want[:min(k, len(want))]
		if len(want) == len(got) && slices.EqualFunc(want, got, func(a, b Ranked) bool { return a.Ex == b.Ex }) {
			return true
		}
	}
	return false
}

// atLeastTwoCores raises GOMAXPROCS to 2 for the test when it is lower,
// so a ranking with a core to spare runs two lanes on any runner.
func atLeastTwoCores(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(n) })
	}
}
