// Package rank turns enumerated explanations into ranked explanation
// lists (Section 4.4):
//
//   - GeneralBudgeted: Algorithm 5 — enumerate everything, score everything,
//     sort, cut at k.
//   - TopKAntiMonotoneBudgeted: the interleaved algorithm for anti-monotonic
//     measures — only explanations currently in the top-k list are
//     expanded further, justified by Theorem 4 (any expansion can only
//     lower an anti-monotonic score).
//   - TopKDistributionalBudgeted: full enumeration, but the per-explanation
//     distributional position computation is bounded by a k-th best
//     position (the SQL "LIMIT p" trick of Section 5.3.2).
//
// GeneralBudgeted and TopKDistributionalBudgeted score their list in one
// loop (lanes.go), in two lanes while the process has a core spare.
//
// Every ranker is anytime under one context: the one it is given, which
// is also the measure.Context's Ctx. When that context ends, the
// evaluation it cut short is discarded, and enumerate.BudgetEnded decides
// the rest: the end of a WithDeadline budget returns the ranking of
// everything scored so far with truncated = true; any other end (the
// caller's cancellation or deadline) returns ctx.Err() and no ranking.
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

// ended reports whether ctx has ended and, when its end is not a
// budget's (enumerate.BudgetEnded), the error to fail the ranking with.
func ended(ctx context.Context) (bool, error) {
	err := ctx.Err()
	if err == nil || enumerate.BudgetEnded(ctx, err) {
		return err != nil, nil
	}
	return true, err
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

// GeneralBudgeted implements Algorithm 5 over an already-enumerated
// explanation list: score, sort, return the top k (all, when k ≤ 0).
// The scores come from the same lanes as TopKDistributionalBudgeted's,
// with no threshold: while the process has a core spare, a helper
// goroutine scores explanations beside the caller. The context is
// checked before and after each (potentially expensive) measure
// evaluation; a score computed while it ends is discarded, never
// returned. Under the package's anytime contract, the end of a budget
// ranks the scores of the longest index-order prefix of es that was
// scored with truncated = true, and any other end returns ctx.Err().
func GeneralBudgeted(cctx context.Context, ctx *measure.Context, es []*pattern.Explanation, m measure.Measure, k int) ([]Ranked, bool, error) {
	return rankScored(cctx, ctx, es, m, nil, k)
}

// TopKAntiMonotoneBudgeted interleaves enumeration, scoring and ranking
// for an anti-monotonic measure: path explanations seed a candidate
// pool, and expansion (merging with path explanations) proceeds only
// from explanations currently in the top-k list, per Theorem 4. The
// final list equals GeneralBudgeted's on the full enumeration, usually
// at a fraction of the cost. Path enumeration runs under cctx and
// cfg.Budget and truncates per the enumerate layer; the interleaved
// expansion checks the context once per frontier explanation and once
// per round. When a budget ends mid-expansion the current top-k list
// (complete explanations, correctly ranked among everything scored so
// far) is returned with truncated = true; any other end returns
// ctx.Err().
func TopKAntiMonotoneBudgeted(cctx context.Context, g *kb.Graph, start, end kb.NodeID, cfg enumerate.Config, ctx *measure.Context, m measure.Measure, k int) ([]Ranked, bool, error) {
	if k <= 0 {
		k = 10
	}
	tr := obs.FromContext(cctx)
	rt0, rinner := rankTimer(tr)
	var mergeCount int64
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
		if cctx.Err() != nil {
			break // remaining paths stay unscored; the first round exits
		}
		mt0 := tr.Begin()
		s := m.Score(ctx, ex)
		tr.End(obs.StageMeasure, mt0, 1)
		if cctx.Err() != nil {
			break // the context cut this evaluation short: discard it
		}
		pool = append(pool, Ranked{Ex: ex, Score: s})
		seen[ex.P.Key()] = struct{}{}
	}
	if cut, err := ended(cctx); cut && err == nil {
		tr.Truncated(obs.StageMeasure)
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
		cut, err := ended(cctx)
		if err != nil {
			return nil, false, err
		}
		sortRanked(pool)
		top := pool
		if len(top) > k {
			top = top[:k]
		}
		// Anytime exit: the pool holds every explanation scored so far,
		// so the current top-k is the best answer the budget bought.
		if cut {
			out := make([]Ranked, len(top))
			copy(out, top)
			tr.Truncated(obs.StageRank)
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
			out := make([]Ranked, len(top))
			copy(out, top)
			traceMerges()
			rankDone(tr, rt0, rinner, len(out))
			return out, truncated, nil
		}
		take := func(key pattern.Key, re *pattern.Explanation) {
			seen[key] = struct{}{}
			if cctx.Err() != nil {
				return // ended: start no evaluation
			}
			mt0 := tr.Begin()
			var s measure.Score
			ok := true
			if threshold != nil {
				s, ok = lim.ScoreWithLimit(ctx, re, threshold)
			} else {
				s = m.Score(ctx, re)
			}
			tr.End(obs.StageMeasure, mt0, 1)
			if !ok || cctx.Err() != nil {
				return // provably below the k-th best, or cut short
			}
			pool = append(pool, Ranked{Ex: re, Score: s})
		}
	merge:
		for _, re1 := range frontier {
			for _, re2 := range paths {
				if cctx.Err() != nil {
					// Candidates merged so far are already scored into
					// the pool; the next round's top-of-loop check
					// returns them ranked, or fails the ranking.
					break merge
				}
				mergeCount++
				merger.Merge(re1, re2, maxVars, decide, take)
			}
		}
	}
}

// TopKDistributionalBudgeted ranks with a prunable (Limited) measure:
// a k-th best score bounds each evaluation, so hopeless position
// computations abort early (the SQL "LIMIT p" of Section 5.3.2). The
// result equals GeneralBudgeted's ranking under the same measure.
//
// While the process has a core spare (spareCore), the explanations are
// scored in two lanes, the caller and one helper goroutine, and
// explanation i is pruned against the k-th best of results 0..i−k, not
// 0..i−1: the lanes then rarely wait for each other, and which lane
// scores an explanation never changes its threshold, so the work done
// depends only on es and the lane count. With one lane the loop is the
// serial one, each evaluation pruned against the k-th best of all the
// results before it. Pruning is strict against a threshold that only
// rises and sortRanked is a total order, so both rank the same list.
//
// It is anytime as GeneralBudgeted is: the context is checked before
// and after each bounded evaluation, the end of a budget returns the
// top k of the longest index-order prefix of es that was scored, with
// truncated = true, and any other end returns ctx.Err(). A panic in the
// helper lane is re-raised on the caller once both lanes have stopped.
//
// The deadline parameter is deprecated and ignored: a wall-clock budget
// is the context's (enumerate.WithDeadline). It stays only because
// benchmark/engine_cold.go passes it, until ROADMAP item 1(e).
func TopKDistributionalBudgeted(cctx context.Context, ctx *measure.Context, es []*pattern.Explanation, m measure.Limited, k int, deadline time.Time) ([]Ranked, bool, error) {
	if k <= 0 {
		k = 10
	}
	return rankScored(cctx, ctx, es, m, m, k)
}

// rankScored is GeneralBudgeted (lim nil) and TopKDistributionalBudgeted:
// it picks the lane count, scores es and attributes the ranking to the
// trace.
func rankScored(cctx context.Context, ctx *measure.Context, es []*pattern.Explanation, m measure.Measure, lim measure.Limited, k int) ([]Ranked, bool, error) {
	tr := obs.FromContext(cctx)
	rt0, rinner := rankTimer(tr)
	// A second lane pays when there is a second explanation to score
	// and, under a threshold, when k > 1: at k = 1 explanation i needs
	// result i−1, so the lanes would take turns.
	lanes := 1
	if len(es) > 1 && (lim == nil || k > 1) && spareCore() {
		lanes = 2
	}
	rs, err := score(cctx, ctx, es, m, lim, k, lanes)
	if err != nil {
		if !enumerate.BudgetEnded(cctx, err) {
			return nil, false, err
		}
		tr.Truncated(obs.StageMeasure)
	}
	rankDone(tr, rt0, rinner, len(rs))
	return rs, err != nil, nil
}
