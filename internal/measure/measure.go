// Package measure implements REX's interestingness measures (Section 4):
//
//   - structure-based: Size and RandomWalk (Section 4.1);
//   - aggregate: Count and Monocount (Section 4.2), the latter
//     anti-monotonic and therefore usable for top-k pruning;
//   - distribution-based: position in the local and global aggregate
//     distributions (Section 4.3);
//   - lexicographic combinations such as size+monocount and
//     size+local-dist (Section 5.4.1).
//
// Scores are vectors compared lexicographically, higher meaning more
// interesting; single-valued measures return length-1 vectors and
// combinations concatenate.
package measure

import (
	"context"

	"rex/internal/electric"
	"rex/internal/kb"
	"rex/internal/match"
	"rex/internal/pattern"
)

// Score is a lexicographically ordered interestingness value; greater
// means more interesting.
type Score []float64

// Less reports whether s is strictly less interesting than t. Missing
// trailing components compare as zero.
func (s Score) Less(t Score) bool { return s.Cmp(t) < 0 }

// Cmp compares lexicographically: -1 when s < t, 0 on equality, 1 when
// s > t.
func (s Score) Cmp(t Score) int {
	n := len(s)
	if len(t) > n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(s) {
			a = s[i]
		}
		if i < len(t) {
			b = t[i]
		}
		if a < b {
			return -1
		}
		if a > b {
			return 1
		}
	}
	return 0
}

// Context carries the evaluation inputs shared by all measures for one
// query: the knowledge base, the target pair, and — for the global
// distributional measure — the sampled start entities whose local
// distributions estimate the global one (Section 5.3.2 uses 100).
type Context struct {
	G     *kb.Graph
	Start kb.NodeID
	End   kb.NodeID
	// SampleStarts are the start entities used to estimate the global
	// distribution. Leave nil unless a global measure is evaluated.
	SampleStarts []kb.NodeID
	// Ctx carries the query's cancellation signal into long-running
	// measure evaluations (the distributional measures walk large
	// neighbourhoods). Nil means no cancellation. When the context is
	// cancelled mid-evaluation a measure returns an incomplete score;
	// callers observing a done context must discard results — the rank
	// layer does exactly that, then truncates on a budget's end
	// (enumerate.BudgetEnded) and surfaces ctx.Err() on any other.
	Ctx context.Context
	// Eval is ignored: measures count with the kernel on every call and
	// memoise nothing across calls. It stays, with Evaluator, for callers
	// compiled against it.
	Eval *Evaluator
}

// Evaluator holds nothing; see Context.Eval.
type Evaluator struct{}

// NewEvaluator returns an empty Evaluator; g is ignored.
func NewEvaluator(g *kb.Graph) *Evaluator { return new(Evaluator) }

// Context returns the cancellation context, defaulting to Background so
// measures never nil-check.
func (c *Context) Context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Measure scores explanations. Implementations must be pure functions of
// (Context, Explanation) so ranking can reorder evaluations freely, and
// safe to call from two goroutines at once: a list ranking scores in two
// lanes while the process has a core spare.
type Measure interface {
	// Name is the identifier used in experiment tables (Table 1).
	Name() string
	// AntiMonotonic reports whether expanding a pattern can only lower
	// the score (Definition 7); anti-monotonic measures allow the
	// Theorem 4 top-k pruning.
	AntiMonotonic() bool
	// Score computes the interestingness of an explanation.
	Score(ctx *Context, ex *pattern.Explanation) Score
}

// A Limited measure can prune its own evaluation: when the true score is
// certain to fall strictly below threshold, the computation may stop
// early and report ok=false. Ties with the threshold must be computed in
// full so that pruned rankings agree exactly with unpruned ones. This is
// the paper's "LIMIT p" optimisation for distribution-based measures
// (Section 5.3.2).
type Limited interface {
	Measure
	// ScoreWithLimit behaves like Score but may return ok=false once the
	// result is provably strictly less than threshold. A nil threshold
	// means no pruning.
	ScoreWithLimit(ctx *Context, ex *pattern.Explanation, threshold Score) (s Score, ok bool)
}

// Size is the pattern-size measure: smaller patterns are more
// interesting, so the score is the negated variable count. It is
// anti-monotonic (a super-pattern has at least as many nodes).
type Size struct{}

// Name implements Measure.
func (Size) Name() string { return "size" }

// AntiMonotonic implements Measure.
func (Size) AntiMonotonic() bool { return true }

// Score implements Measure.
func (Size) Score(_ *Context, ex *pattern.Explanation) Score {
	return Score{-float64(ex.P.NumVars())}
}

// RandomWalk is the electrical-current measure of Section 4.1: the
// pattern is a network of unit resistors and the score is the current
// delivered between the targets (effective conductance). It is neither
// monotonic nor anti-monotonic: parallel structure raises it, serial
// structure lowers it.
type RandomWalk struct{}

// Name implements Measure.
func (RandomWalk) Name() string { return "random-walk" }

// AntiMonotonic implements Measure.
func (RandomWalk) AntiMonotonic() bool { return false }

// Score implements Measure.
func (RandomWalk) Score(_ *Context, ex *pattern.Explanation) Score {
	p := ex.P
	n := p.NumVars()
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for _, e := range p.Edges() {
		w[e.U][e.V]++
		w[e.V][e.U]++
	}
	return Score{electric.Conductance(n, w, int(pattern.Start), int(pattern.End))}
}

// Count is M_count: the number of distinct instances (Section 4.2). It
// is neither monotonic nor anti-monotonic.
type Count struct{}

// Name implements Measure.
func (Count) Name() string { return "count" }

// AntiMonotonic implements Measure.
func (Count) AntiMonotonic() bool { return false }

// Score implements Measure.
func (Count) Score(_ *Context, ex *pattern.Explanation) Score {
	return Score{float64(ex.Count())}
}

// Monocount is M_monocount: the minimum over non-target variables of the
// number of distinct entities bound to the variable, overridden to 1 for
// direct-edge patterns (Section 4.2). It is anti-monotonic — the paper's
// extension of single-graph support — so it drives the Theorem 4 top-k
// pruning.
type Monocount struct{}

// Name implements Measure.
func (Monocount) Name() string { return "monocount" }

// AntiMonotonic implements Measure.
func (Monocount) AntiMonotonic() bool { return true }

// Score implements Measure.
func (Monocount) Score(_ *Context, ex *pattern.Explanation) Score {
	return Score{float64(ex.Monocount())}
}

// Combined is a lexicographic combination: primary score first, secondary
// as tie-break. The paper's size+monocount and size+local-dist rows of
// Table 1 are Combined{Size, Monocount} and Combined{Size,
// LocalPosition}.
type Combined struct {
	Primary, Secondary Measure
}

// Name implements Measure.
func (c Combined) Name() string { return c.Primary.Name() + "+" + c.Secondary.Name() }

// AntiMonotonic implements Measure: a lexicographic combination is
// anti-monotonic iff both components are.
func (c Combined) AntiMonotonic() bool {
	return c.Primary.AntiMonotonic() && c.Secondary.AntiMonotonic()
}

// Score implements Measure.
func (c Combined) Score(ctx *Context, ex *pattern.Explanation) Score {
	return append(append(Score{}, c.Primary.Score(ctx, ex)...), c.Secondary.Score(ctx, ex)...)
}

// ScoreWithLimit implements Limited when the secondary measure supports
// pruning: the secondary is only evaluated when the primary ties the
// threshold's primary component, and then with the residual limit. This
// is the paper's observation that combining a cheap primary index with a
// distributional tie-break is several times faster than the
// distributional measure alone.
func (c Combined) ScoreWithLimit(ctx *Context, ex *pattern.Explanation, threshold Score) (Score, bool) {
	ps := c.Primary.Score(ctx, ex)
	if threshold == nil {
		return append(append(Score{}, ps...), c.Secondary.Score(ctx, ex)...), true
	}
	pt := threshold[:min(len(ps), len(threshold))]
	switch ps.Cmp(pt) {
	case -1:
		return nil, false // primary already loses
	case 1:
		return append(append(Score{}, ps...), c.Secondary.Score(ctx, ex)...), true
	}
	// Primary ties: the secondary decides, and may prune against the
	// remaining threshold components.
	rest := Score(threshold[min(len(ps), len(threshold)):])
	if lim, ok := c.Secondary.(Limited); ok {
		ss, ok2 := lim.ScoreWithLimit(ctx, ex, rest)
		if !ok2 {
			return nil, false
		}
		return append(append(Score{}, ps...), ss...), true
	}
	ss := c.Secondary.Score(ctx, ex)
	return append(append(Score{}, ps...), ss...), true
}

// CountOracle recomputes M_count with the independent matcher instead of
// the enumerated instance list; tests use it to cross-check instance
// propagation, and distributional measures use the same matcher on other
// entity pairs. A cancelled context yields an incomplete count, which
// callers observing the done context discard (the rank layer's
// contract).
func CountOracle(ctx *Context, ex *pattern.Explanation) int {
	n, _ := match.CountContext(ctx.Context(), ctx.G, ex.P, ctx.Start, ctx.End)
	return n
}
