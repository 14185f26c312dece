// Package match evaluates explanation patterns against a knowledge base:
// a backtracking subgraph matcher specialised for REX patterns, where the
// start variable is always bound, the end variable may be bound or free,
// and instances are injective embeddings — distinct variables bind
// distinct entities. (Definition 2 of the paper literally allows
// non-injective mappings, but the enumeration framework of Section 3 only
// produces instances assembled from simple paths, and Theorems 1–2 are
// only sound under the injective reading; REX therefore adopts it
// system-wide. See DESIGN.md.)
//
// The matcher powers the distributional interestingness measures (which
// evaluate a pattern with the end — or both targets — varied) and serves
// as an independent oracle in tests: instances produced incrementally by
// the enumeration algorithms must equal the matcher's results.
//
// # Allocation discipline
//
// Measure evaluation calls the matcher once per memo miss — a handful of
// times per query (non-path patterns of the explanation set; path
// patterns go through measure's walk), a hundred times that under the
// global measures' sampled starts — so matcher state is pooled: every entry point takes a matcher from a
// sync.Pool, resets it, runs, and returns it. All per-run state lives in
// fixed MaxVars-sized arrays or reused slices inside the pooled struct,
// making the steady-state Count path allocation-free (see
// BenchmarkMatchCount). The pool contract: reset rebuilds every field
// that run reads, and release clears the graph, pattern and context
// pointers so a pooled matcher never retains a swapped-out snapshot.
package match

import (
	"context"
	"sync"
	"time"

	"rex/internal/kb"
	"rex/internal/obs"
	"rex/internal/pattern"
)

// Options configures a match run.
type Options struct {
	// Limit stops enumeration after this many instances when positive.
	Limit int
}

// ctxCheckInterval bounds how many candidate bindings the backtracking
// search tries between context checks, so cancellation is noticed at a
// bounded interval without paying a per-candidate atomic load.
const ctxCheckInterval = 1024

// ForEach enumerates the instances of p in g with the start variable
// bound to start and, if end != kb.InvalidNode, the end variable bound to
// end. The callback receives each instance (the slice is reused across
// calls; clone to retain) and returns false to stop early.
//
// Per Definition 2, non-target variables never bind to the start entity
// or to the (chosen) end entity; variable bindings are otherwise free to
// repeat.
func ForEach(g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID, f func(pattern.Instance) bool) {
	m := acquireMatcher(g, p, start, end)
	m.run(f)
	releaseMatcher(m)
}

// ForEachContext is ForEach with cancellation: the search checks ctx
// every ctxCheckInterval candidate bindings and unwinds early when the
// context is done, returning ctx.Err(). A nil error means the enumeration
// ran to completion (or the callback stopped it).
func ForEachContext(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID, f func(pattern.Instance) bool) error {
	tr := obs.FromContext(ctx)
	t0 := tr.Begin()
	m := acquireMatcher(g, p, start, end)
	m.ctx = ctx
	m.run(f)
	return m.finish(tr, t0, 0)
}

// CountContext is Count with cancellation; the count is partial when an
// error is returned.
func CountContext(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID) (int, error) {
	tr := obs.FromContext(ctx)
	t0 := tr.Begin()
	m := acquireMatcher(g, p, start, end)
	m.ctx = ctx
	m.run(m.countFn)
	n := m.count
	return n, m.finish(tr, t0, int64(n))
}

// CountByEndContext is CountByEnd with cancellation; the map is partial
// when an error is returned.
func CountByEndContext(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start kb.NodeID) (map[kb.NodeID]int, error) {
	counts := make(map[kb.NodeID]int)
	err := CountByEndInto(ctx, g, p, start, counts)
	return counts, err
}

// CountByEndInto evaluates p with a free end variable and accumulates
// the per-end instance counts into dst, which the caller owns (and
// typically reuses — clear it between unrelated runs). Like Count, the
// steady-state path allocates nothing: the matcher and its counting
// callback come from the pool, and dst absorbs the only per-call state
// the map-returning wrappers had to allocate. The count is partial when
// an error is returned. The start entity itself is excluded as an end.
func CountByEndInto(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start kb.NodeID, dst map[kb.NodeID]int) error {
	tr := obs.FromContext(ctx)
	t0 := tr.Begin()
	m := acquireMatcher(g, p, start, kb.InvalidNode)
	m.ctx = ctx
	m.endCounts = dst
	m.run(m.byEndFn)
	return m.finish(tr, t0, int64(len(dst)))
}

// CountByEndDense is CountByEndInto over a dense EndCounter instead of a
// map: every instance's end is fed to c.Add, and the search stops the
// moment Add reports the position pruned (LIMIT p). The counter is
// partial when an error is returned.
func CountByEndDense(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start kb.NodeID, c *EndCounter) error {
	tr := obs.FromContext(ctx)
	t0 := tr.Begin()
	m := acquireMatcher(g, p, start, kb.InvalidNode)
	m.ctx = ctx
	m.dense = c
	m.run(m.denseFn)
	return m.finish(tr, t0, int64(len(c.touched)))
}

// Find collects the instances of p with the given target bindings. Pass
// end = kb.InvalidNode to leave the end variable free. The zero Options
// value enumerates everything.
func Find(g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID, opt Options) []pattern.Instance {
	var out []pattern.Instance
	ForEach(g, p, start, end, func(in pattern.Instance) bool {
		out = append(out, in.Clone())
		return opt.Limit <= 0 || len(out) < opt.Limit
	})
	return out
}

// Count reports the number of instances of p between start and end; this
// is Mcount evaluated from scratch. The steady-state path performs no
// allocations: the matcher, its buffers and the counting callback all
// come from the pool.
func Count(g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID) int {
	m := acquireMatcher(g, p, start, end)
	m.run(m.countFn)
	n := m.count
	releaseMatcher(m)
	return n
}

// CountByEnd evaluates p with a free end variable and returns the number
// of instances per end entity: the raw material of the paper's local
// distribution D_l. The start entity itself is excluded as an end.
// Callers that reuse a table should prefer CountByEndInto, which is
// allocation-free in the steady state.
func CountByEnd(g *kb.Graph, p *pattern.Pattern, start kb.NodeID) map[kb.NodeID]int {
	counts := make(map[kb.NodeID]int)
	_ = CountByEndInto(context.Background(), g, p, start, counts)
	return counts
}

// matcher holds the per-run state of the backtracking search. Instances
// are pooled; all variable-indexed state sits in MaxVars-sized arrays so
// a reset writes no pointers and performs no allocations.
type matcher struct {
	g     *kb.Graph
	p     *pattern.Pattern
	start kb.NodeID
	end   kb.NodeID // InvalidNode when free

	n        int
	instBuf  [pattern.MaxVars]kb.NodeID
	inst     pattern.Instance // instBuf[:n]
	assigned [pattern.MaxVars]bool
	left     int // variables still unassigned

	// anchors lists every pattern edge twice, once per endpoint:
	// anchors[first[v]:first[v+1]] are the edges of variable v, each as a
	// way to reach v from its far endpoint. spans[i] is the label span of
	// anchors[i] at the far endpoint's binding — fetched by bind when that
	// endpoint is bound before v, valid for as long as it stays bound.
	anchors []anchor
	first   [pattern.MaxVars + 1]int32
	spans   [][]kb.HalfEdge
	sorted  bool // g is frozen: label spans are ordered by (To, Dir)

	// countFn is the pooled counting callback for Count/CountContext,
	// allocated once per pooled matcher so the steady-state count path
	// closes over nothing. byEndFn and denseFn are its per-end siblings:
	// they feed endCounts, the caller-owned table wired up by
	// CountByEndInto, and dense, the counter wired up by CountByEndDense.
	countFn   func(pattern.Instance) bool
	count     int
	byEndFn   func(pattern.Instance) bool
	endCounts map[kb.NodeID]int
	denseFn   func(pattern.Instance) bool
	dense     *EndCounter

	// tries counts candidate bindings: the unit of work the trace reports
	// and the clock of cancellation — ctx is checked every
	// ctxCheckInterval of them; when done, err records ctx.Err() and the
	// search unwinds.
	ctx   context.Context
	err   error
	tries int
}

var matcherPool = sync.Pool{
	New: func() any {
		m := &matcher{}
		m.countFn = func(pattern.Instance) bool {
			m.count++
			return true
		}
		m.byEndFn = func(in pattern.Instance) bool {
			m.endCounts[in[pattern.End]]++
			return true
		}
		m.denseFn = func(in pattern.Instance) bool {
			return m.dense.Add(in[pattern.End])
		}
		return m
	},
}

// acquireMatcher takes a pooled matcher and rebuilds its state for one
// run. The caller must pass it to releaseMatcher when done.
func acquireMatcher(g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID) *matcher {
	m := matcherPool.Get().(*matcher)
	m.g, m.p, m.start, m.end = g, p, start, end
	m.n = p.NumVars()
	m.inst = m.instBuf[:m.n]
	for i := 0; i < m.n; i++ {
		m.assigned[i] = false
	}
	m.left = m.n
	m.count = 0
	m.tries = 0
	m.ctx = nil
	m.err = nil
	m.sorted = g.Frozen()

	// For a directed label, the edge v→other appears at other as a
	// half-edge with Dir==In, and other→v as Dir==Out.
	m.anchors = m.anchors[:0]
	for v := 0; v < m.n; v++ {
		m.first[v] = int32(len(m.anchors))
		for _, e := range p.Edges() {
			var a anchor
			switch pattern.VarID(v) {
			case e.U:
				a = anchor{to: e.U, from: e.V, label: e.Label, wantDir: kb.In}
			case e.V:
				a = anchor{to: e.V, from: e.U, label: e.Label, wantDir: kb.Out}
			default:
				continue
			}
			if !g.LabelDirected(e.Label) {
				a.wantDir = kb.Undirected
			}
			m.anchors = append(m.anchors, a)
		}
	}
	m.first[m.n] = int32(len(m.anchors))
	if cap(m.spans) < len(m.anchors) {
		m.spans = make([][]kb.HalfEdge, len(m.anchors))
	}
	m.spans = m.spans[:len(m.anchors)]
	return m
}

// releaseMatcher returns a matcher to the pool, clearing every pointer so
// pooled matchers never pin a knowledge-base snapshot or context alive.
// The reusable buffers (instance, anchor and span storage) are retained —
// that reuse is the point of the pool.
func releaseMatcher(m *matcher) {
	m.g, m.p = nil, nil
	clear(m.spans)
	m.inst = nil
	m.ctx = nil
	m.err = nil
	m.endCounts = nil
	m.dense = nil
	matcherPool.Put(m)
}

// finish ends a context-carrying run: it records the stage and the
// bindings tried in the trace, releases the matcher and returns the
// run's error.
func (m *matcher) finish(tr *obs.Trace, t0 time.Time, items int64) error {
	err := m.err
	tr.AddBindings(int64(m.tries))
	releaseMatcher(m)
	tr.End(obs.StageMatch, t0, items)
	return err
}

// cancelled counts one candidate binding and reports whether the search
// should abort, checking the context at a bounded interval.
func (m *matcher) cancelled() bool {
	if m.err != nil {
		return true
	}
	m.tries++
	if m.tries%ctxCheckInterval != 0 || m.ctx == nil {
		return false
	}
	if err := m.ctx.Err(); err != nil {
		m.err = err
		return true
	}
	return false
}

// anchor is one pattern edge seen from one endpoint, to: followed from
// the binding of the far endpoint, from, its label span generates the
// candidates for to, or verifies one by lookup.
type anchor struct {
	to, from pattern.VarID
	label    kb.LabelID
	// wantDir is the orientation candidates must satisfy as half-edges of
	// from's value: Out when the pattern edge leaves from, In when it
	// enters from, Undirected for undirected labels.
	wantDir kb.Dir
}

// run performs the backtracking search, invoking f for each complete
// instance until f returns false.
func (m *matcher) run(f func(pattern.Instance) bool) {
	if !m.bind(pattern.Start, m.start) {
		return
	}
	if m.end != kb.InvalidNode {
		if !m.bind(pattern.End, m.end) {
			return
		}
		// Quick reject: with both targets bound, verify the pattern's
		// direct start–end edges once up front.
		for _, e := range m.p.Edges() {
			if m.assigned[e.U] && m.assigned[e.V] && !m.g.HasEdge(m.inst[e.U], m.inst[e.V], e.Label) {
				return
			}
		}
	}
	m.search(f)
}

// bind assigns cand to v and fetches the label span of every pattern
// edge from v to a variable still unassigned. It reports false when one
// of those spans is empty: no instance extends the binding. The caller
// unassigns v.
func (m *matcher) bind(v pattern.VarID, cand kb.NodeID) bool {
	m.inst[v], m.assigned[v] = cand, true
	m.left--
	for i := range m.anchors {
		if a := &m.anchors[i]; a.from == v && !m.assigned[a.to] {
			if m.spans[i] = m.g.NeighborsLabeled(cand, a.label); len(m.spans[i]) == 0 {
				return false
			}
		}
	}
	return true
}

// search binds one more variable and recurses. There is no static plan:
// at every node it takes the unassigned variable whose shortest label
// span into the bound set is shortest — ties to the variable with more
// edges into the bound set, then to the lowest ID — generates candidates
// from that span and verifies them in the variable's other spans. Span
// lengths are a function of the graph and the bindings alone, so the
// enumeration order is deterministic.
func (m *matcher) search(f func(pattern.Instance) bool) bool {
	if m.left == 0 {
		return f(m.inst)
	}
	best, gen, bestLen, bestEdges := pattern.VarID(-1), -1, 0, 0
	for v := 0; v < m.n; v++ {
		if m.assigned[v] {
			continue
		}
		short, edges := -1, 0
		for i := int(m.first[v]); i < int(m.first[v+1]); i++ {
			if m.assigned[m.anchors[i].from] {
				edges++
				if short < 0 || len(m.spans[i]) < len(m.spans[short]) {
					short = i
				}
			}
		}
		if edges == 0 {
			continue
		}
		if n := len(m.spans[short]); best < 0 || n < bestLen || (n == bestLen && edges > bestEdges) {
			best, gen, bestLen, bestEdges = pattern.VarID(v), short, n, edges
		}
	}
	if best < 0 {
		// No unassigned variable touches the bound set: the pattern has a
		// component disconnected from the start (an isolated end, or
		// NaiveEnum's intermediate shapes). Seed it by full scan.
		for best = 0; m.assigned[best]; best++ {
		}
		for id := kb.NodeID(0); int(id) < m.g.NumNodes(); id++ {
			if !m.try(best, gen, id, f) {
				return false
			}
		}
		return true
	}
	// On a frozen graph a label span is ordered by (To, Dir), so
	// candidates come in node order.
	wantDir := m.anchors[gen].wantDir
	for _, he := range m.spans[gen] {
		if he.Dir == wantDir && !m.try(best, gen, he.To, f) {
			return false
		}
	}
	return true
}

// try binds v to cand if the instance side conditions and v's edges into
// the bound set allow it — gen, the edge that generated cand, needs no
// check — and searches on. It reports false when the search must stop.
func (m *matcher) try(v pattern.VarID, gen int, cand kb.NodeID, f func(pattern.Instance) bool) bool {
	if m.cancelled() {
		return false
	}
	if !m.admissible(v, cand) {
		return true
	}
	for i := int(m.first[v]); i < int(m.first[v+1]); i++ {
		a := &m.anchors[i]
		if i != gen && m.assigned[a.from] && !kb.HasHalfEdge(m.spans[i], cand, a.wantDir, m.sorted) {
			return true
		}
	}
	ok := !m.bind(v, cand) || m.search(f)
	m.assigned[v] = false
	m.left++
	return ok
}

// admissible enforces the instance side conditions for a candidate
// binding of variable v: REX instances are injective (distinct variables
// bind distinct entities), which subsumes Definition 2's requirement that
// non-target variables avoid the target entities.
func (m *matcher) admissible(v pattern.VarID, cand kb.NodeID) bool {
	for u := 0; u < len(m.inst); u++ {
		if pattern.VarID(u) != v && m.assigned[u] && m.inst[u] == cand {
			return false
		}
	}
	return true
}
