package measure

import (
	"context"
	"math"
	"sync"

	"rex/internal/kb"
	"rex/internal/match"
	"rex/internal/obs"
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
	pos, ok := streamLocalPosition(ctx.Context(), ctx.G, ex.P, ctx.Start, ex.Count(), limit)
	if !ok {
		return nil, false
	}
	return Score{-float64(pos)}, true
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

// localTable is the whole local distribution of p from start as a fresh
// map: the deviation measures need it, the position measures never do.
func localTable(cctx context.Context, g *kb.Graph, p *pattern.Pattern, start kb.NodeID) (map[kb.NodeID]int, error) {
	c := match.AcquireEndCounter(g, 0, -1)
	defer c.Release()
	if err := countEnds(cctx, g, p, start, c); err != nil {
		return nil, err
	}
	return c.Table(), nil
}

// countEnds is the one local-distribution kernel: it adds up in c the
// instances of p from start per end and stops as soon as c reports the
// position pruned. No instance set and no table is ever built — the only
// state is dense counters.
//
// Path patterns (the bulk of every explanation set) are aggregated, not
// enumerated: for a simple-path pattern the injective walks from the
// start are precisely the pattern's instances (injectivity of the walk is
// the instance-level injectivity, and Definition 2's target-avoidance is
// subsumed by it), and pathWalk counts them without visiting the last
// level one walk at a time. Everything else goes through the pooled
// backtracking matcher.
func countEnds(cctx context.Context, g *kb.Graph, p *pattern.Pattern, start kb.NodeID, c *match.EndCounter) error {
	steps, isPath := p.PathSteps()
	if !isPath {
		return match.CountByEndDense(cctx, g, p, start, c)
	}
	w := pathWalkPool.Get().(*pathWalk)
	w.ctx, w.g, w.steps, w.sorted = cctx, g, steps, g.Frozen()
	w.mult, w.debt = dense(w.mult, g.NumNodes()), dense(w.debt, g.NumNodes())
	w.nodes[0] = start
	if w.prefixes(0) {
		w.scatter(c)
	}
	err := w.err
	obs.FromContext(cctx).AddWalkSteps(int64(w.work))
	w.release()
	return err
}

// walkCheckInterval bounds walk steps between context checks.
const walkCheckInterval = 1024

// pathWalk counts the instances of an L-step path pattern per end from
// the walks of its first L−1 steps, the prefixes. With N(v) the nodes
// one last step away from v,
//
//	count[e] = Σ_v mult[v]·[e ∈ N(v)] − debt[e]
//
// where mult[v] is the number of prefixes ending at v and debt[e] the
// number of prefixes that end at a v with e ∈ N(v) and already hold e:
// the first term extends every prefix by every last step, the second
// takes back the extensions that revisit a prefix node. Both are final
// when the prefix walk ends, so scatter touches each distinct v's last
// span once, however many prefixes end there.
//
// The debt test "n ∈ N(v)", for every prefix end v and every earlier
// node n of its prefix, is asked from n's side: v ∈ rev(n), n's span of
// the last label with the orientation reversed. The prefix ends below one
// node arrive in ascending order on a frozen graph, so each rev(n) is
// merged forward by a seek cursor instead of searched once per end, and
// no prefix end's own last span is fetched until scatter.
//
// Walks are pooled. mult and debt are all-zero between uses (release
// resets the touched entries) and are sized to the graph at every use:
// node IDs are append-only across hot swaps, see match.EndCounter.
type pathWalk struct {
	ctx    context.Context
	g      *kb.Graph
	steps  []pattern.PathStep
	sorted bool                       // g is frozen: label spans are ordered by (To, Dir)
	nodes  [pattern.MaxVars]kb.NodeID // nodes[:depth+1] is the current injective walk

	// rev[d] is nodes[d]'s span of the last label, fetched when the walk
	// pushes it, and cur[d] the debt test's seek cursor into it.
	rev [pattern.MaxVars][]kb.HalfEdge
	cur [pattern.MaxVars]int

	mult, debt []uint32
	ends, owed []kb.NodeID // nodes with mult > 0 and with debt > 0, in first-visit order

	work int // half-edges visited, prefix walk and scatter
	err  error
}

var pathWalkPool = sync.Pool{New: func() any { return new(pathWalk) }}

// dense reslices a pooled all-zero array to n entries.
func dense(a []uint32, n int) []uint32 {
	if cap(a) < n {
		return make([]uint32, n)
	}
	return a[:n]
}

// bump adds one to a[id], saturating, and lists id when it was zero.
func bump(a []uint32, listed []kb.NodeID, id kb.NodeID) []kb.NodeID {
	if a[id] == 0 {
		listed = append(listed, id)
	}
	if a[id] != math.MaxUint32 {
		a[id]++
	}
	return listed
}

func (w *pathWalk) release() {
	for _, id := range w.ends {
		w.mult[id] = 0
	}
	for _, id := range w.owed {
		w.debt[id] = 0
	}
	w.ends, w.owed = w.ends[:0], w.owed[:0]
	clear(w.rev[:])
	w.ctx, w.g, w.steps, w.work, w.err = nil, nil, nil, 0, nil
	pathWalkPool.Put(w)
}

// step counts one visited half-edge and reports false when the context
// is done, checking it every walkCheckInterval steps.
func (w *pathWalk) step() bool {
	w.work++
	if w.work%walkCheckInterval == 0 {
		w.err = w.ctx.Err()
	}
	return w.err == nil
}

// prefixes extends the walk ending at nodes[depth] depth-first to every
// prefix, recording each in mult and debt. It reports false when
// cancelled.
func (w *pathWalk) prefixes(depth int) bool {
	last := w.steps[len(w.steps)-1]
	if depth == len(w.steps)-1 {
		// A one-step pattern: the start is the only prefix, and it holds
		// no earlier node to owe.
		w.ends = bump(w.mult, w.ends, w.nodes[depth])
		return true
	}
	st := w.steps[depth]
	w.rev[depth] = w.g.NeighborsLabeled(w.nodes[depth], last.Label)
	childEnds := depth == len(w.steps)-2 // the children are prefix ends
	if childEnds {
		clear(w.cur[:depth+1])
	}
	back := last.Dir.Reverse()
nextEdge:
	for _, he := range w.g.NeighborsLabeled(w.nodes[depth], st.Label) {
		if he.Dir != st.Dir {
			continue
		}
		if !w.step() {
			return false
		}
		for _, n := range w.nodes[:depth+1] {
			if n == he.To {
				continue nextEdge
			}
		}
		if !childEnds {
			w.nodes[depth+1] = he.To
			if !w.prefixes(depth + 1) {
				return false
			}
			continue
		}
		w.ends = bump(w.mult, w.ends, he.To)
		for d, n := range w.nodes[:depth+1] {
			if kb.SeekHalfEdge(w.rev[d], &w.cur[d], he.To, back, w.sorted) {
				w.owed = bump(w.debt, w.owed, n)
			}
		}
	}
	return true
}

// scatter adds every distinct prefix end's last span into c, weighted by
// the prefixes ending there. An end's sum can only grow towards
// count+debt, so c knows the end exceeds a the moment the sum crosses
// a+1+debt and LIMIT p stops the scatter early.
func (w *pathWalk) scatter(c *match.EndCounter) {
	last := w.steps[len(w.steps)-1]
	for _, v := range w.ends {
		for _, he := range w.g.NeighborsLabeled(v, last.Label) {
			if he.Dir != last.Dir {
				continue
			}
			if !w.step() || !c.AddWeighted(he.To, w.mult[v], w.debt[he.To]) {
				return
			}
		}
	}
	if len(w.owed) > 0 {
		c.Settle(w.debt)
	}
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
// The sample may repeat a start (it is drawn with replacement); each
// distinct start is evaluated once per call and its exact position
// reused, in sample order, so the sum and the pruning decision are those
// of one evaluation per sample.
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
	seen := make(map[kb.NodeID]int, len(starts))
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
		pos, ok := seen[s]
		if !ok {
			if pos, ok = streamLocalPosition(cctx, ctx.G, ex.P, s, a, rem); !ok {
				return nil, false
			}
			seen[s] = pos
		}
		total += pos // past the limit, the next residual or the final check prunes
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
