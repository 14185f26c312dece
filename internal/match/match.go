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
// Measure evaluation calls Count/CountByEnd once per (pattern, pair) —
// thousands of times per query under the distributional measures — so
// matcher state is pooled: every entry point takes a matcher from a
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
	err := m.err
	releaseMatcher(m)
	tr.End(obs.StageMatch, t0, 0)
	return err
}

// CountContext is Count with cancellation; the count is partial when an
// error is returned.
func CountContext(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID) (int, error) {
	tr := obs.FromContext(ctx)
	t0 := tr.Begin()
	m := acquireMatcher(g, p, start, end)
	m.ctx = ctx
	m.run(m.countFn)
	n, err := m.count, m.err
	releaseMatcher(m)
	tr.End(obs.StageMatch, t0, int64(n))
	return n, err
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
	err := m.err
	m.endCounts = nil
	releaseMatcher(m)
	tr.End(obs.StageMatch, t0, int64(len(dst)))
	return err
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
	err := m.err
	releaseMatcher(m)
	tr.End(obs.StageMatch, t0, int64(len(c.touched)))
	return err
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

	// plan output: order[:orderLen] is the assignment order excluding
	// pre-bound variables; anchors[anchorSpan[d][0]:anchorSpan[d][1]] are
	// the pattern edges joining order[d] to variables bound before it.
	// One of them generates the candidates, the others are verified.
	// spans[i] is the label span of anchors[i] at its neighbor's current
	// binding, fetched once per binding of the variables before order[d]
	// and valid for every candidate tried at depth d.
	order      [pattern.MaxVars]pattern.VarID
	orderLen   int
	anchorSpan [pattern.MaxVars][2]int32
	anchors    []anchor
	spans      [][]kb.HalfEdge
	sorted     bool // g is frozen: label spans are ordered by (To, Dir)

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

	// Cancellation: ctx is checked every ctxCheckInterval candidate
	// tries; when done, err records ctx.Err() and the search unwinds.
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
	m.inst[pattern.Start] = start
	m.assigned[pattern.Start] = true
	if end != kb.InvalidNode {
		m.inst[pattern.End] = end
		m.assigned[pattern.End] = true
	}
	m.orderLen = 0
	m.anchors = m.anchors[:0]
	m.count = 0
	m.tries = 0
	m.ctx = nil
	m.err = nil
	m.plan()
	if cap(m.spans) < len(m.anchors) {
		m.spans = make([][]kb.HalfEdge, len(m.anchors))
	}
	m.spans = m.spans[:len(m.anchors)]
	m.sorted = g.Frozen()
	return m
}

// releaseMatcher returns a matcher to the pool, clearing every pointer so
// pooled matchers never pin a knowledge-base snapshot or context alive.
// The reusable buffers (instance, plan and check storage) are retained —
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

// cancelled reports whether the search should abort, checking the context
// at a bounded interval.
func (m *matcher) cancelled() bool {
	if m.err != nil {
		return true
	}
	if m.ctx == nil {
		return false
	}
	m.tries++
	if m.tries%ctxCheckInterval != 0 {
		return false
	}
	if err := m.ctx.Err(); err != nil {
		m.err = err
		return true
	}
	return false
}

// anchor is one pattern edge joining a variable to an already-assigned
// neighbor. Followed from the neighbor's value it generates candidates
// for the variable; otherwise a candidate is verified by looking it up
// in the same label span.
type anchor struct {
	e    pattern.Edge
	from pattern.VarID // assigned neighbor variable
	// wantDir is the orientation candidates must satisfy as half-edges of
	// the anchor's value: Out when the pattern edge leaves from, In when
	// it enters from, Undirected for undirected labels.
	wantDir kb.Dir
}

// plan picks a static assignment order: repeatedly the unassigned
// variable with the most edges into the assigned set — the most
// constrained, hence most selective, binding — breaking ties by higher
// total pattern degree (more future constraints resolved early) and then
// by lowest ID for determinism. At least one edge into the assigned set
// is required so candidates always come from adjacency rather than a
// full node scan; patterns are connected to the start, so the greedy
// order always completes.
func (m *matcher) plan() {
	n := m.n
	var done [pattern.MaxVars]bool
	var degree [pattern.MaxVars]int
	copy(done[:n], m.assigned[:n])
	for _, e := range m.p.Edges() {
		degree[e.U]++
		degree[e.V]++
	}
	remaining := 0
	for v := 0; v < n; v++ {
		if !done[v] {
			remaining++
		}
	}
	for remaining > 0 {
		best := pattern.VarID(-1)
		bestEdges, bestDegree := 0, 0
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			cnt := 0
			for _, e := range m.p.Edges() {
				if (e.U == pattern.VarID(v) && done[e.V]) || (e.V == pattern.VarID(v) && done[e.U]) {
					cnt++
				}
			}
			if cnt > bestEdges || (cnt == bestEdges && cnt > 0 && degree[v] > bestDegree) {
				best, bestEdges, bestDegree = pattern.VarID(v), cnt, degree[v]
			}
		}
		if best < 0 {
			// No unassigned variable touches the assigned set: the
			// pattern has a component disconnected from the start (an
			// isolated end, or NaiveEnum's intermediate shapes). Seed the
			// component with a full-scan binding and resume the greedy
			// anchored order from there.
			for v := 0; v < n; v++ {
				if !done[v] {
					done[v] = true
					remaining--
					m.pushPlan(pattern.VarID(v), len(m.anchors))
					break
				}
			}
			continue
		}
		done[best] = true
		remaining--

		// Every incident edge whose other endpoint is assigned is an
		// anchor; search picks the generating one per binding.
		first := len(m.anchors)
		for _, e := range m.p.Edges() {
			var other pattern.VarID
			var outward bool // edge leaves the anchor toward best
			switch {
			case e.U == best && done[e.V] && e.V != best:
				other, outward = e.V, true // directed edge best→other
			case e.V == best && done[e.U] && e.U != best:
				other, outward = e.U, false // directed edge other→best
			default:
				continue
			}
			// Candidates for best are enumerated from the half-edges at
			// the anchor's bound node value(other). For a directed label,
			// the edge best→other appears at other as a half-edge with
			// Dir==In, and other→best as Dir==Out.
			dir := kb.Undirected
			if m.g.LabelDirected(e.Label) {
				if outward {
					dir = kb.In
				} else {
					dir = kb.Out
				}
			}
			m.anchors = append(m.anchors, anchor{e: e, from: other, wantDir: dir})
		}
		m.pushPlan(best, first)
	}
}

// pushPlan appends one step to the assignment plan; the step's anchors
// are m.anchors[first:len(m.anchors)].
func (m *matcher) pushPlan(v pattern.VarID, first int) {
	d := m.orderLen
	m.order[d] = v
	m.anchorSpan[d] = [2]int32{int32(first), int32(len(m.anchors))}
	m.orderLen++
}

// run performs the backtracking search, invoking f for each complete
// instance until f returns false.
func (m *matcher) run(f func(pattern.Instance) bool) {
	// Quick reject: when both targets are bound and the pattern has
	// direct start–end edges, verify them once up front.
	for _, e := range m.p.Edges() {
		if m.assigned[e.U] && m.assigned[e.V] {
			if !m.g.HasEdge(m.inst[e.U], m.inst[e.V], e.Label) {
				return
			}
		}
	}
	m.search(0, f)
}

// search assigns m.order[depth] and recurses.
func (m *matcher) search(depth int, f func(pattern.Instance) bool) bool {
	if depth == m.orderLen {
		return f(m.inst)
	}
	v := m.order[depth]
	first, end := m.anchorSpan[depth][0], m.anchorSpan[depth][1]
	ancs, spans := m.anchors[first:end], m.spans[first:end]
	// Generate candidates from the shortest incident label span: with
	// several edges into the bound set (a cycle closing, a hub on one
	// side) the first edge in pattern order can fan out over a hub whose
	// neighbours the other edge rejects one lookup at a time.
	gen := 0
	for i := range ancs {
		spans[i] = m.g.NeighborsLabeled(m.inst[ancs[i].from], ancs[i].e.Label)
		if len(spans[i]) < len(spans[gen]) {
			gen = i
		}
	}
	try := func(cand kb.NodeID) bool {
		if m.cancelled() {
			return false
		}
		if !m.admissible(v, cand) {
			return true
		}
		if !m.checkEdges(ancs, spans, gen, cand) {
			return true
		}
		m.inst[v] = cand
		m.assigned[v] = true
		ok := m.search(depth+1, f)
		m.assigned[v] = false
		return ok
	}
	if len(ancs) == 0 {
		// Variable in a component disconnected from anything assigned
		// (e.g. a free, isolated end): bind by full scan.
		for id := kb.NodeID(0); int(id) < m.g.NumNodes(); id++ {
			if !try(id) {
				return false
			}
		}
		return true
	}
	// The label index narrows candidates to the anchor's label up front;
	// on a frozen graph the order equals Neighbors filtered to the label,
	// so enumeration stays deterministic.
	wantDir := ancs[gen].wantDir
	for _, he := range spans[gen] {
		if he.Dir != wantDir {
			continue
		}
		if !try(he.To) {
			return false
		}
	}
	return true
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

// checkEdges verifies a candidate against the anchors other than the
// generating one — the edges that become fully bound at this depth — in
// the label spans search already fetched to choose the generator.
func (m *matcher) checkEdges(ancs []anchor, spans [][]kb.HalfEdge, gen int, cand kb.NodeID) bool {
	for i := range ancs {
		if i != gen && !hasHalfEdge(spans[i], cand, ancs[i].wantDir, m.sorted) {
			return false
		}
	}
	return true
}

// hasHalfEdge reports whether one label's span holds a half-edge to the
// given node with the given orientation: a binary search on a frozen
// graph, whose spans are ordered by (To, Dir) with at most two entries
// per To, and a scan otherwise.
func hasHalfEdge(span []kb.HalfEdge, to kb.NodeID, dir kb.Dir, sorted bool) bool {
	lo := 0
	if sorted {
		hi := len(span)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if span[mid].To < to {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	for ; lo < len(span); lo++ {
		if span[lo].To == to {
			if span[lo].Dir == dir {
				return true
			}
		} else if sorted {
			return false
		}
	}
	return false
}
