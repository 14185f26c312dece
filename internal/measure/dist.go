package measure

import (
	"context"

	"rex/internal/kb"
	"rex/internal/match"
	"rex/internal/pattern"
)

// Distribution-based measures (Section 4.3). For an explanation with
// aggregate value A (we use M_count, as in the paper's SQL example), the
// position measure counts how many competing entity pairs achieve an
// aggregate strictly greater than A: position 0 means no pair beats the
// explanation — maximally rare, maximally interesting. Scores negate the
// position so that greater remains more interesting.
//
// The local distribution varies only the end entity; the global
// distribution varies both and is estimated from the local distributions
// of sampled start entities (100 in the paper, Section 5.3.2).

// LocalPosition is M_position over the local distribution D_l.
type LocalPosition struct{}

// Name implements Measure.
func (LocalPosition) Name() string { return "local-dist" }

// AntiMonotonic implements Measure: position is not anti-monotonic (the
// paper notes distribution-based measures are not subject to the
// Theorem 4 pruning).
func (LocalPosition) AntiMonotonic() bool { return false }

// Score implements Measure.
func (m LocalPosition) Score(ctx *Context, ex *pattern.Explanation) Score {
	s, _ := m.ScoreWithLimit(ctx, ex, nil)
	return s
}

// ScoreWithLimit implements Limited: computation aborts once the position
// provably exceeds the threshold's implied limit — the SQL "LIMIT p"
// optimisation of Section 5.3.2.
func (LocalPosition) ScoreWithLimit(ctx *Context, ex *pattern.Explanation, threshold Score) (Score, bool) {
	limit := -1
	if len(threshold) > 0 {
		// score = -position, so the score drops strictly below the
		// threshold exactly when position > -threshold[0]; positions
		// reaching the limit itself (a tie) are computed in full. A
		// positive threshold is unreachable (positions are ≥ 0):
		// prune immediately.
		if threshold[0] > 0 {
			return nil, false
		}
		limit = int(-threshold[0])
	}
	a := ex.Count()
	pos, ok := localPosition(ctx, ex.P, ctx.Start, a, limit)
	if !ok {
		return nil, false
	}
	return Score{-float64(pos)}, true
}

// localPosition answers one local-position question: from the
// evaluator's answer memo when the context carries one, straight from
// the counting kernel otherwise. Both return identical positions and
// identical pruning decisions.
func localPosition(ctx *Context, p *pattern.Pattern, start kb.NodeID, a, limit int) (pos int, ok bool) {
	if ev := ctx.Eval; ev != nil {
		pos, ok, err := ev.LocalPosition(ctx.Context(), p, start, a, limit)
		if err != nil {
			return 0, false
		}
		return pos, ok
	}
	return streamLocalPosition(ctx.Context(), ctx.G, p, start, a, limit)
}

// streamLocalPosition counts the end entities whose instance count with
// the given start strictly exceeds a. When limit ≥ 0 and the count of
// such entities exceeds limit, enumeration stops and ok=false is
// returned. Cancellation of cctx also aborts with ok=false; the caller
// is expected to notice the done context and discard the result.
func streamLocalPosition(cctx context.Context, g *kb.Graph, p *pattern.Pattern, start kb.NodeID, a, limit int) (pos int, ok bool) {
	c := match.AcquireEndCounter(g, a, limit)
	defer c.Release()
	if err := countEnds(cctx, g, p, start, c); err != nil || c.Pruned() {
		return 0, false
	}
	return c.Exceeded(), true
}

// countEnds is the one local-distribution kernel: it streams the end of
// every instance of p from start into c and stops as soon as c reports
// the position pruned. No instance set and no table is ever built — the
// only state is the dense counter and a walk of at most MaxVars nodes.
//
// Path patterns (the bulk of every explanation set) are a depth-first
// injective walk over the label spans: for a simple-path pattern the
// injective walks from the start are precisely the pattern's instances
// (injectivity of the walk is the instance-level injectivity, and
// Definition 2's target-avoidance is subsumed by it). Everything else
// goes through the pooled backtracking matcher.
func countEnds(cctx context.Context, g *kb.Graph, p *pattern.Pattern, start kb.NodeID, c *match.EndCounter) error {
	steps, isPath := p.PathSteps()
	if !isPath {
		return match.CountByEndDense(cctx, g, p, start, c)
	}
	w := pathWalk{ctx: cctx, g: g, steps: steps, c: c}
	w.nodes[0] = start
	w.from(0)
	return w.err
}

// walkCheckInterval bounds extension steps between context checks.
const walkCheckInterval = 1024

// pathWalk is the state of one path-pattern walk: nodes[:depth+1] is the
// current injective prefix.
type pathWalk struct {
	ctx     context.Context
	g       *kb.Graph
	steps   []pattern.PathStep
	c       *match.EndCounter
	nodes   [pattern.MaxVars]kb.NodeID
	checked int
	err     error
}

// from extends the prefix ending at nodes[depth] by steps[depth:],
// reporting false when the walk must stop (pruned or cancelled).
func (w *pathWalk) from(depth int) bool {
	st := w.steps[depth]
	last := depth == len(w.steps)-1
nextEdge:
	for _, he := range w.g.NeighborsLabeled(w.nodes[depth], st.Label) {
		if he.Dir != st.Dir {
			continue
		}
		w.checked++
		if w.checked%walkCheckInterval == 0 {
			if w.err = w.ctx.Err(); w.err != nil {
				return false
			}
		}
		for _, n := range w.nodes[:depth+1] {
			if n == he.To {
				continue nextEdge
			}
		}
		if last {
			if !w.c.Add(he.To) {
				return false
			}
			continue
		}
		w.nodes[depth+1] = he.To
		if !w.from(depth + 1) {
			return false
		}
	}
	return true
}

// GlobalPosition is M_position over the (estimated) global distribution
// D_g: the sum of local positions over the sampled start entities in
// Context.SampleStarts. With no samples configured it degrades to the
// local measure.
type GlobalPosition struct{}

// Name implements Measure.
func (GlobalPosition) Name() string { return "global-dist" }

// AntiMonotonic implements Measure.
func (GlobalPosition) AntiMonotonic() bool { return false }

// Score implements Measure.
func (m GlobalPosition) Score(ctx *Context, ex *pattern.Explanation) Score {
	s, _ := m.ScoreWithLimit(ctx, ex, nil)
	return s
}

// ScoreWithLimit implements Limited: the running sum of per-sample
// positions stops as soon as it exceeds the threshold's implied limit.
func (GlobalPosition) ScoreWithLimit(ctx *Context, ex *pattern.Explanation, threshold Score) (Score, bool) {
	limit := -1
	if len(threshold) > 0 {
		if threshold[0] > 0 {
			return nil, false // positions are ≥ 0; score cannot reach
		}
		limit = int(-threshold[0])
	}
	a := ex.Count()
	starts := ctx.SampleStarts
	if len(starts) == 0 {
		starts = []kb.NodeID{ctx.Start}
	}
	total := 0
	cctx := ctx.Context()
	for _, s := range starts {
		if cctx.Err() != nil {
			return nil, false
		}
		rem := -1
		if limit >= 0 {
			rem = limit - total
			if rem < 0 {
				return nil, false
			}
		}
		pos, ok := localPosition(ctx, ex.P, s, a, rem)
		if !ok {
			return nil, false
		}
		total += pos
	}
	if limit >= 0 && total > limit {
		return nil, false
	}
	return Score{-float64(total)}, true
}

// SampleStarts picks n deterministic start entities for global
// distribution estimation: entities with non-zero degree, chosen by a
// fixed stride over the node space seeded by the query pair so repeated
// runs agree. The paper samples 100 random start entities.
func SampleStarts(g *kb.Graph, n int, seed int64) []kb.NodeID {
	return sampleStarts(g, "", n, seed)
}

// SampleStartsOfType is SampleStarts restricted to entities of one type.
// Comparing a pattern's aggregate against starts of the query entity's
// own type concentrates the sample where the pattern can match at all —
// with a typed knowledge base, a "starring" pattern rooted at a genre
// contributes nothing but noise to the estimate.
func SampleStartsOfType(g *kb.Graph, typ string, n int, seed int64) []kb.NodeID {
	return sampleStarts(g, typ, n, seed)
}

func sampleStarts(g *kb.Graph, typ string, n int, seed int64) []kb.NodeID {
	if n <= 0 {
		n = 100
	}
	total := g.NumNodes()
	if total == 0 {
		return nil
	}
	out := make([]kb.NodeID, 0, n)
	// Deterministic linear-congruential walk over node IDs; cheap and
	// seedable without pulling math/rand into the measure layer.
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for attempts := 0; len(out) < n && attempts < 200*n; attempts++ {
		x = x*6364136223846793005 + 1442695040888963407
		id := kb.NodeID(x % uint64(total))
		if g.Degree(id) == 0 {
			continue
		}
		if typ != "" && g.Node(id).Type != typ {
			continue
		}
		out = append(out, id)
	}
	return out
}
