package enumerate

import (
	"context"
	"time"

	"rex/internal/obs"
	"rex/internal/pattern"
)

// Path explanation combination (Section 3.3): grow the set of minimal
// explanations ring by ring. Ring 0 is the path explanations (MinP(1));
// ring k is obtained by merging ring k-1 explanations with path
// explanations (Theorem 2 guarantees completeness). Duplicates are
// detected by canonical pattern keys, globally across rings, so each
// minimal pattern surfaces exactly once — at the ring equal to its
// minimal covering cardinality minus one.
//
// The union drives the pattern.Merger, which takes each merge
// candidate in order of cost: the mask of variable pairs with a shared
// binding rules out empty candidates before they are enumerated, a
// semi-join stops at the first merged instance, only a non-empty
// candidate has its canonical key computed in scratch and handed to
// decide, and only a taken one is joined in full and materialised — so
// a candidate that duplicates a committed pattern costs no full join and
// no allocation. One union run is one Merger run: every explanation's
// binding index is built at its first merge, each path's once, and
// dropped when the run returns.

// mergeStage is one union run's entry in the query trace: the stage
// timer, the merge attempts, and the merger's join counters from
// before the run so end can report this run's share.
type mergeStage struct {
	tr     *obs.Trace
	t0     time.Time
	merger *pattern.Merger
	joins0 pattern.JoinStats
	merges int64
}

func beginMergeStage(tr *obs.Trace, merger *pattern.Merger) mergeStage {
	return mergeStage{tr: tr, t0: tr.Begin(), merger: merger, joins0: merger.JoinStats()}
}

func (m *mergeStage) end(explanations int) {
	j := m.merger.JoinStats().Sub(m.joins0)
	m.tr.Add(obs.Merges, m.merges)
	m.tr.Add(obs.Joins, j.Run)
	m.tr.Add(obs.JoinsSkipped, j.Skipped)
	m.tr.End(obs.StageMerge, m.t0, int64(explanations))
}

// PathUnionPrune is Algorithm 4: composition histories restrict which
// paths each explanation needs to merge with. Per Theorem 3, a pattern in
// MinP(k) (k > 2) has a covering pair {p0, p1} ⊂ MinP(k-1) sharing a
// MinP(k-2) sub-component; so when expanding an explanation of the
// current ring it suffices to try the paths that built its ring-siblings
// sharing a parent (plus, on the first ring, all paths).
func PathUnionPrune(qpath []*pattern.Explanation, maxVars int) []*pattern.Explanation {
	st := defaultPool.get()
	defer defaultPool.put(st)
	out, _, _ := st.pathUnionPrune(context.Background(), qpath, maxVars)
	return out
}

// ctxCheckInterval bounds the number of steps between context checks in
// the union's merge loop (merges are heavyweight relative to a poll, so
// a small interval keeps a budget's truncation prompt at no measurable
// cost).
const ctxCheckInterval = 32

// cancelCheck counts steps (n) and polls the context once per
// ctxCheckInterval steps. The zero value with a nil ctx never cancels.
type cancelCheck struct {
	ctx context.Context
	n   int
	err error
}

// step advances the counter and reports a sticky cancellation error on
// interval boundaries.
func (c *cancelCheck) step() error {
	if c.err != nil {
		return c.err
	}
	c.n++
	if c.ctx == nil || c.n%ctxCheckInterval != 0 {
		return nil
	}
	c.err = c.ctx.Err()
	return c.err
}

// pathUnionPrune implements PathUnionPrune with cancellation, checked
// once per merge pair. Candidates that duplicate an older ring are
// skipped after their semi-join; candidates that duplicate the current
// ring need only that semi-join to decide whether a composition history
// entry is due (MergeProbe); only new patterns are joined in full. A
// context ended by its WithDeadline budget returns the explanations
// committed so far (each complete) with truncated = true.
func (st *enumState) pathUnionPrune(ctx context.Context, qpath []*pattern.Explanation, maxVars int) ([]*pattern.Explanation, bool, error) {
	tr := obs.FromContext(ctx)
	rec := beginMergeStage(tr, st.merger)
	defer st.merger.Reset()
	q := append([]*pattern.Explanation{}, qpath...)
	seen := st.unionSeen
	clear(seen)
	for _, re := range qpath {
		seen[re.P.Key()] = struct{}{}
	}
	check := cancelCheck{ctx: ctx}

	type histPair struct{ parent, path int }
	expand := qpath
	var hExpand [][]histPair // composition history per expand entry; nil on ring 0
	newIndex := st.newIndex  // canonical key → index in qnew, reset per ring
	for len(expand) > 0 {
		var (
			qnew []*pattern.Explanation
			hNew [][]histPair
		)
		clear(newIndex)
		// parentPaths[x] is the set of path indexes that, merged with
		// parent x, produced some explanation of the current ring.
		var parentPaths map[int]map[int]struct{}
		if hExpand != nil {
			parentPaths = make(map[int]map[int]struct{})
			for _, h := range hExpand {
				for _, pr := range h {
					set, ok := parentPaths[pr.parent]
					if !ok {
						set = make(map[int]struct{})
						parentPaths[pr.parent] = set
					}
					set[pr.path] = struct{}{}
				}
			}
		}

		decide := func(k pattern.Key) pattern.MergeAction {
			if _, dup := seen[k]; dup {
				return pattern.MergeSkip // duplicated against Q (older rings)
			}
			if _, dup := newIndex[k]; dup {
				return pattern.MergeProbe // current ring: history bookkeeping only
			}
			return pattern.MergeTake
		}
		var curParent, curPath int
		take := func(k pattern.Key, re *pattern.Explanation) {
			idx, ok := newIndex[k]
			if !ok {
				idx = len(qnew)
				newIndex[k] = idx
				qnew = append(qnew, re)
				hNew = append(hNew, nil)
			}
			hNew[idx] = append(hNew[idx], histPair{parent: curParent, path: curPath})
		}

		for i1, re1 := range expand {
			// Candidate paths to merge with re1 (the set S_path of
			// Algorithm 4).
			var candidates []int
			if hExpand == nil {
				candidates = make([]int, len(qpath))
				for j := range qpath {
					candidates[j] = j
				}
			} else {
				set := make(map[int]struct{})
				for _, pr := range hExpand[i1] {
					for j2 := range parentPaths[pr.parent] {
						set[j2] = struct{}{}
					}
				}
				candidates = make([]int, 0, len(set))
				for j2 := range set {
					candidates = append(candidates, j2)
				}
				// Deterministic merge order.
				sortInts(candidates)
			}
			for _, i2 := range candidates {
				if err := check.step(); err != nil {
					if !BudgetEnded(ctx, err) {
						return nil, false, err
					}
					q = append(q, qnew...)
					tr.Truncated(obs.StageMerge, obs.TruncDeadline)
					rec.end(len(q))
					return q, true, nil
				}
				rec.merges++
				curParent, curPath = i1, i2
				st.merger.Merge(re1, qpath[i2], maxVars, decide, take)
			}
		}
		for _, re := range qnew {
			seen[re.P.Key()] = struct{}{}
		}
		q = append(q, qnew...)
		expand, hExpand = qnew, hNew
	}
	rec.end(len(q))
	return q, false, nil
}

// sortInts insertion-sorts the (small) candidate index sets so merge
// order, and therefore instance ordering inside merged explanations, is
// deterministic.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
