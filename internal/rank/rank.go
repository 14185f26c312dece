// Package rank turns enumerated explanations into ranked explanation
// lists (Section 4.4):
//
//   - General: Algorithm 5 — enumerate everything, score everything,
//     sort, cut at k.
//   - TopKAntiMonotone: the interleaved algorithm for anti-monotonic
//     measures — only explanations currently in the top-k list are
//     expanded further, justified by Theorem 4 (any expansion can only
//     lower an anti-monotonic score).
//   - TopKDistributional: full enumeration, but the per-explanation
//     distributional position computation is bounded by the current
//     k-th best position (the SQL "LIMIT p" trick of Section 5.3.2).
package rank

import (
	"context"
	"sort"
	"time"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/measure"
	"rex/internal/obs"
	"rex/internal/pattern"
)

// rankTimer snapshots the wall clock and the trace's inner-stage time
// (enumerate + measure + merge) so rankDone can attribute a ranker's
// exclusive time — sorting, pool bookkeeping, pruning decisions — to
// the rank stage without double-counting the work it drives. On a nil
// trace it never reads the clock.
func rankTimer(tr *obs.Trace) (time.Time, int64) {
	if tr == nil {
		return time.Time{}, 0
	}
	return time.Now(), tr.InnerNs()
}

// rankDone records the rank stage as total elapsed minus the
// inner-stage time accumulated since rankTimer.
func rankDone(tr *obs.Trace, t0 time.Time, preInner int64, items int) {
	if tr == nil {
		return
	}
	excl := time.Since(t0) - time.Duration(tr.InnerNs()-preInner)
	if excl < 0 {
		excl = 0
	}
	tr.AddStage(obs.StageRank, excl, 1, int64(items))
}

// rankClock reports expiry of the anytime budget context (nil = never
// expires); expiry is sticky so one observation truncates the rest of
// the ranking.
type rankClock struct {
	bctx    context.Context
	expired bool
}

func (c *rankClock) hit() bool {
	if c.expired {
		return true
	}
	if c.bctx == nil {
		return false
	}
	c.expired = c.bctx.Err() != nil
	return c.expired
}

// budgetedMeasureCtx prepares anytime scoring for a deadline: measure
// evaluations run under a context that expires at the deadline (derived
// from cctx, so real cancellation still flows through), which the
// engine's bounded-interval checks — matcher bindings, path walks,
// streaming positions — already poll. A heavy evaluation therefore
// aborts within the budget instead of overshooting it by its own full
// cost; the rank loops observe the expiry via rankClock, discard the
// aborted (incomplete) evaluation, and return the ranking built so far.
// With a zero deadline everything is returned unchanged.
func budgetedMeasureCtx(cctx context.Context, mctx *measure.Context, deadline time.Time) (*measure.Context, *rankClock, context.CancelFunc) {
	if deadline.IsZero() {
		return mctx, &rankClock{}, func() {}
	}
	bctx, cancel := context.WithDeadline(cctx, deadline)
	bm := *mctx
	bm.Ctx = bctx
	return &bm, &rankClock{bctx: bctx}, cancel
}

// Ranked pairs an explanation with its interestingness score.
type Ranked struct {
	Ex    *pattern.Explanation
	Score measure.Score
}

// sortRanked orders by score descending. Ties break by (pattern size,
// edge count, key hash): deterministic, and — crucially for the
// Theorem 4 pruning — ancestor-consistent: a merge result always has
// more nodes, or equal nodes and more edges, than the explanations it
// was merged from, so on tied scores every ancestor of a top-k
// explanation is itself top-k and the interleaved expansion cannot miss
// it. (This also mirrors the paper's emission order: the ring-by-ring
// union produces small patterns first.) pattern.Key is the FNV-1a hash
// of the canonical encoding — the exact hash this sort historically
// computed itself — so the interned key preserves the tie order
// bit-for-bit while skipping the per-comparison string hashing.
func sortRanked(rs []Ranked) {
	sort.Slice(rs, func(i, j int) bool {
		if c := rs[i].Score.Cmp(rs[j].Score); c != 0 {
			return c > 0
		}
		pi, pj := rs[i].Ex.P, rs[j].Ex.P
		if pi.NumVars() != pj.NumVars() {
			return pi.NumVars() < pj.NumVars()
		}
		if pi.NumEdges() != pj.NumEdges() {
			return pi.NumEdges() < pj.NumEdges()
		}
		if hi, hj := pi.Key(), pj.Key(); hi != hj {
			return hi < hj
		}
		return pi.CanonicalKey() < pj.CanonicalKey()
	})
}

// General implements Algorithm 5 over an already-enumerated explanation
// list: score, sort, return the top k (all, when k ≤ 0).
func General(ctx *measure.Context, es []*pattern.Explanation, m measure.Measure, k int) []Ranked {
	rs, _, _ := GeneralBudgeted(context.Background(), ctx, es, m, k, time.Time{})
	return rs
}

// GeneralBudgeted is General with cancellation and an anytime deadline.
// The context is checked before each (potentially expensive) measure
// evaluation, and a done context aborts ranking mid-flight with
// ctx.Err(); scores computed while the context expires are discarded,
// never partially returned. Scoring stops when the deadline passes and
// the explanations scored so far are ranked and returned with
// truncated = true. A zero deadline never truncates.
func GeneralBudgeted(cctx context.Context, ctx *measure.Context, es []*pattern.Explanation, m measure.Measure, k int, deadline time.Time) ([]Ranked, bool, error) {
	tr := obs.FromContext(cctx)
	rt0, rinner := rankTimer(tr)
	bm, clock, cancel := budgetedMeasureCtx(cctx, ctx, deadline)
	defer cancel()
	rs := make([]Ranked, 0, len(es))
	for _, ex := range es {
		if err := cctx.Err(); err != nil {
			return nil, false, err
		}
		if clock.hit() {
			tr.Truncated(obs.StageMeasure, obs.TruncDeadline)
			break
		}
		mt0 := tr.Begin()
		s := m.Score(bm, ex)
		tr.End(obs.StageMeasure, mt0, 1)
		if clock.hit() {
			tr.Truncated(obs.StageMeasure, obs.TruncDeadline)
			break // the budget cut this evaluation short: discard it
		}
		rs = append(rs, Ranked{Ex: ex, Score: s})
	}
	// A context that expired during the final Score call would otherwise
	// slip a partial score into the result: measures abort with
	// incomplete values on cancellation and rely on this post-loop check.
	if err := cctx.Err(); err != nil {
		return nil, false, err
	}
	sortRanked(rs)
	if k > 0 && len(rs) > k {
		rs = rs[:k]
	}
	rankDone(tr, rt0, rinner, len(rs))
	return rs, clock.expired, nil
}

// TopKAntiMonotone interleaves enumeration, scoring and ranking for an
// anti-monotonic measure: path explanations seed a candidate pool, and
// expansion (merging with path explanations) proceeds only from
// explanations currently in the top-k list, per Theorem 4. The final list
// equals General's on the full enumeration, usually at a fraction of the
// cost.
func TopKAntiMonotone(g *kb.Graph, start, end kb.NodeID, cfg enumerate.Config, ctx *measure.Context, m measure.Measure, k int) []Ranked {
	rs, _, _ := TopKAntiMonotoneBudgeted(context.Background(), g, start, end, cfg, ctx, m, k)
	return rs
}

// TopKAntiMonotoneBudgeted is TopKAntiMonotone with cancellation — path
// enumeration aborts via the enumerate layer, and the interleaved
// expansion checks the context once per frontier explanation — and the
// anytime contract of cfg.Budget: path enumeration truncates per the
// enumerate layer, and when the budget deadline passes mid-expansion the
// current top-k list (complete explanations, correctly ranked among
// everything scored so far) is returned with truncated = true. A zero
// budget never truncates.
func TopKAntiMonotoneBudgeted(cctx context.Context, g *kb.Graph, start, end kb.NodeID, cfg enumerate.Config, ctx *measure.Context, m measure.Measure, k int) ([]Ranked, bool, error) {
	if k <= 0 {
		k = 10
	}
	tr := obs.FromContext(cctx)
	rt0, rinner := rankTimer(tr)
	var mergeCount int64
	bm, clock, cancel := budgetedMeasureCtx(cctx, ctx, cfg.Budget.Deadline)
	defer cancel()
	paths, truncated, err := enumerate.PathsBudgeted(cctx, g, start, end, cfg)
	if err != nil {
		return nil, false, err
	}
	maxVars := cfg.MaxPatternSize
	if maxVars <= 0 {
		maxVars = enumerate.DefaultMaxPatternSize
	}

	pool := make([]Ranked, 0, len(paths))
	seen := make(map[pattern.Key]struct{}, len(paths))
	expanded := make(map[pattern.Key]struct{})
	for _, ex := range paths {
		if clock.hit() {
			tr.Truncated(obs.StageMeasure, obs.TruncDeadline)
			break // remaining paths stay unscored; the first round exits
		}
		mt0 := tr.Begin()
		s := m.Score(bm, ex)
		tr.End(obs.StageMeasure, mt0, 1)
		if clock.hit() {
			tr.Truncated(obs.StageMeasure, obs.TruncDeadline)
			break // the budget cut this evaluation short: discard it
		}
		pool = append(pool, Ranked{Ex: ex, Score: s})
		seen[ex.P.Key()] = struct{}{}
	}
	lim, isLimited := m.(measure.Limited)
	merger := pattern.AcquireMerger()
	defer pattern.ReleaseMerger(merger)
	joins0 := merger.JoinStats()
	traceMerges := func() {
		j := merger.JoinStats().Sub(joins0)
		tr.Add(obs.Merges, mergeCount)
		tr.Add(obs.Joins, j.Run)
		tr.Add(obs.JoinsSkipped, j.Skipped)
	}
	// Candidates duplicating an already-seen pattern are dropped after
	// their semi-join, before the full join and materialisation, so the
	// expansion loop only allocates for explanations that enter the
	// candidate pool.
	decide := func(k pattern.Key) pattern.MergeAction {
		if _, dup := seen[k]; dup {
			return pattern.MergeSkip
		}
		return pattern.MergeTake
	}

	for {
		if err := cctx.Err(); err != nil {
			return nil, false, err
		}
		sortRanked(pool)
		top := pool
		if len(top) > k {
			top = top[:k]
		}
		// Anytime exit: the pool holds every explanation scored so far,
		// so the current top-k is the best answer the budget bought.
		if clock.hit() {
			out := make([]Ranked, len(top))
			copy(out, top)
			tr.Truncated(obs.StageRank, obs.TruncDeadline)
			traceMerges()
			rankDone(tr, rt0, rinner, len(out))
			return out, true, nil
		}
		// The current k-th best score bounds every further evaluation:
		// a Limited measure may abort once a candidate is provably
		// strictly below it. The threshold only rises as the pool grows,
		// so a candidate strictly below it now can never reach the final
		// top-k (scores are fixed) and is safe to drop outright — the
		// returned ranking is identical to the unpruned one.
		var threshold measure.Score
		if isLimited && len(pool) >= k {
			threshold = pool[k-1].Score
		}
		var frontier []*pattern.Explanation
		for _, r := range top {
			key := r.Ex.P.Key()
			if _, done := expanded[key]; !done {
				expanded[key] = struct{}{}
				frontier = append(frontier, r.Ex)
			}
		}
		if len(frontier) == 0 {
			// Guard against a context that expired during the last
			// Score call of the previous expansion round (see
			// GeneralBudgeted).
			if err := cctx.Err(); err != nil {
				return nil, false, err
			}
			out := make([]Ranked, len(top))
			copy(out, top)
			traceMerges()
			rankDone(tr, rt0, rinner, len(out))
			return out, truncated, nil
		}
		take := func(key pattern.Key, re *pattern.Explanation) {
			seen[key] = struct{}{}
			mt0 := tr.Begin()
			if threshold != nil {
				s, ok := lim.ScoreWithLimit(bm, re, threshold)
				tr.End(obs.StageMeasure, mt0, 1)
				if !ok || clock.hit() {
					return // provably below the k-th best, or budget-cut
				}
				pool = append(pool, Ranked{Ex: re, Score: s})
				return
			}
			s := m.Score(bm, re)
			tr.End(obs.StageMeasure, mt0, 1)
			if clock.hit() {
				return // the budget cut this evaluation short: discard it
			}
			pool = append(pool, Ranked{Ex: re, Score: s})
		}
		for _, re1 := range frontier {
			if err := cctx.Err(); err != nil {
				return nil, false, err
			}
			if clock.hit() {
				// Candidates merged so far are already scored into the
				// pool; the next round's top-of-loop exit returns them
				// ranked.
				break
			}
			for _, re2 := range paths {
				mergeCount++
				merger.Merge(re1, re2, maxVars, decide, take)
			}
		}
	}
}

// TopKDistributional ranks with a prunable (Limited) measure: the current
// k-th best score bounds each subsequent evaluation, so hopeless
// position computations abort early. The result equals General's ranking
// under the same measure.
func TopKDistributional(ctx *measure.Context, es []*pattern.Explanation, m measure.Limited, k int) []Ranked {
	rs, _, _ := TopKDistributionalBudgeted(context.Background(), ctx, es, m, k, time.Time{})
	return rs
}

// TopKDistributionalBudgeted is TopKDistributional with cancellation,
// checked before each bounded evaluation, and an anytime deadline: when
// it passes, evaluation stops and the top-k over the explanations scored
// so far is returned with truncated = true. A zero deadline never
// truncates.
func TopKDistributionalBudgeted(cctx context.Context, ctx *measure.Context, es []*pattern.Explanation, m measure.Limited, k int, deadline time.Time) ([]Ranked, bool, error) {
	if k <= 0 {
		k = 10
	}
	tr := obs.FromContext(cctx)
	rt0, rinner := rankTimer(tr)
	bm, clock, cancel := budgetedMeasureCtx(cctx, ctx, deadline)
	defer cancel()
	var top []Ranked
	for _, ex := range es {
		if err := cctx.Err(); err != nil {
			return nil, false, err
		}
		if clock.hit() {
			tr.Truncated(obs.StageMeasure, obs.TruncDeadline)
			break
		}
		var threshold measure.Score
		if len(top) >= k {
			threshold = top[len(top)-1].Score
		}
		mt0 := tr.Begin()
		s, ok := m.ScoreWithLimit(bm, ex, threshold)
		tr.End(obs.StageMeasure, mt0, 1)
		if clock.hit() {
			tr.Truncated(obs.StageMeasure, obs.TruncDeadline)
			break // the budget cut this evaluation short: discard it
		}
		if !ok {
			continue // cannot beat the current k-th best
		}
		top = append(top, Ranked{Ex: ex, Score: s})
		sortRanked(top)
		if len(top) > k {
			top = top[:k]
		}
	}
	// Cancellation mid-evaluation surfaces as ok=false (indistinguishable
	// from "cannot beat the k-th best"), so a context that expired during
	// the final ScoreWithLimit call must fail the ranking here rather
	// than return a silently truncated top-k.
	if err := cctx.Err(); err != nil {
		return nil, false, err
	}
	rankDone(tr, rt0, rinner, len(top))
	return top, clock.expired, nil
}
