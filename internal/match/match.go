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
// Measure evaluation calls the matcher a handful of times per query
// (non-path patterns of the explanation set; path patterns go through
// measure's walk), a hundred times that under the global measures'
// sampled starts — so matcher state is pooled: every entry point takes a
// matcher from a sync.Pool, resets it, runs, and returns it. All per-run state lives in fixed MaxVars-sized arrays,
// reused slices or the leaf memo inside the pooled struct, making the
// steady-state Count path allocation-free (see BenchmarkMatchCount). The
// pool contract: reset rebuilds every field that run reads, and release
// clears the graph, pattern and context pointers so a pooled matcher
// never retains a swapped-out snapshot.
//
// ForEach and Find bind every variable of every instance; the counting
// entry points (Count*, CountByEnd*) size the last variable other than
// the end instead of binding it, see leaf.
//
// # Candidate checks
//
// A candidate for a variable is generated from one label span and
// checked against the variable's other spans into the bound set. On a
// frozen graph every loop that feeds one variable's checks sees its
// candidates in ascending node order, so the checks are a forward merge:
// fits seeks each span from a per-anchor cursor (kb.SeekHalfEdge), and
// the loop rewinds the variable's cursors before its first candidate.
// The one probe out of order, leaf's check of the bound nodes, rewinds
// before each.
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
	_ = ForEachContext(context.Background(), g, p, start, end, f) // never cancelled
}

// ForEachContext is ForEach with cancellation: the search checks ctx
// every ctxCheckInterval candidate bindings and unwinds early when the
// context is done, returning ctx.Err(). A nil error means the enumeration
// ran to completion (or the callback stopped it).
func ForEachContext(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID, f func(pattern.Instance) bool) error {
	tr := obs.FromContext(ctx)
	t0 := tr.Begin()
	m := acquireMatcher(g, p, start, end)
	m.ctx, m.f = ctx, f
	m.run()
	return m.finish(tr, t0, 0)
}

// CountContext is Count with cancellation; the count is partial when an
// error is returned.
func CountContext(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID) (int, error) {
	tr := obs.FromContext(ctx)
	t0 := tr.Begin()
	m := acquireMatcher(g, p, start, end)
	m.ctx = ctx
	m.run()
	n := m.count
	return n, m.finish(tr, t0, int64(n))
}

// CountByEndInto evaluates p with a free end variable and accumulates
// the per-end instance counts into dst, which the caller owns (and
// typically reuses — clear it between unrelated runs). Like Count, the
// steady-state path allocates nothing: the matcher and the dense counter
// the run fills are pooled, and dst absorbs the only per-call state the
// map-returning wrapper has to allocate. One run's count per end
// saturates at 2³²−1, as an EndCounter does, and is partial when an error
// is returned. The start entity itself is excluded as an end.
func CountByEndInto(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start kb.NodeID, dst map[kb.NodeID]int) error {
	c := AcquireEndCounter(g, 0, -1)
	defer c.Release()
	err := CountByEndDense(ctx, g, p, start, c)
	for _, id := range c.touched {
		dst[id] += int(c.n[id])
	}
	return err
}

// CountByEndDense is CountByEndInto over a dense EndCounter instead of a
// map: the instances of every end are added to c by weight, and the
// search stops the moment c reports the position pruned (LIMIT p). The
// counter is partial when an error is returned.
func CountByEndDense(ctx context.Context, g *kb.Graph, p *pattern.Pattern, start kb.NodeID, c *EndCounter) error {
	tr := obs.FromContext(ctx)
	t0 := tr.Begin()
	m := acquireMatcher(g, p, start, kb.InvalidNode)
	m.ctx, m.dense = ctx, c
	m.run()
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
// allocations: the matcher, its buffers and its leaf memo all come from
// the pool.
func Count(g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID) int {
	n, _ := CountContext(context.Background(), g, p, start, end) // never cancelled
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
	// cur[i] is fits' seek cursor into spans[i], see rewind.
	anchors []anchor
	first   [pattern.MaxVars + 1]int32
	spans   [][]kb.HalfEdge
	cur     []int
	sorted  bool // g is frozen: label spans are ordered by (To, Dir)

	// f receives every instance of an enumerating run. It is nil on a
	// counting run, whose instances are added by weight to dense under
	// their end, or to count when there is no counter.
	f     func(pattern.Instance) bool
	count int
	dense *EndCounter

	memo map[leafKey]int // |C(x)| per leaf of this run, see size

	// tries counts candidate bindings, and the candidates a leaf scan
	// examines: the unit of work the trace reports and the clock of
	// cancellation — ctx is checked every ctxCheckInterval of them; when
	// done, err records ctx.Err() and the search unwinds.
	ctx   context.Context
	err   error
	tries int
}

// leafKey names a leaf's candidate set: x and the bindings of its pattern
// neighbours, zero elsewhere (which slots count follows from x).
type leafKey struct {
	x  pattern.VarID
	at [pattern.MaxVars]kb.NodeID
}

// leafMemoKeep is the largest memo a matcher may go back to the pool with.
// clear costs a map's capacity, not its length, and a map never shrinks:
// one wide run would tax every later one.
const leafMemoKeep = 1 << 10

// The memo's hint is past the 8 up to which a map allocates on first
// insert instead: a pooled matcher's first leaf must not allocate.
var matcherPool = sync.Pool{New: func() any { return &matcher{memo: make(map[leafKey]int, 16)} }}

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
		m.cur = make([]int, len(m.anchors))
	}
	m.spans, m.cur = m.spans[:len(m.anchors)], m.cur[:len(m.anchors)]
	return m
}

// releaseMatcher returns a matcher to the pool, clearing every pointer so
// pooled matchers never pin a knowledge-base snapshot or context alive.
// The reusable buffers (instance, anchor and span storage, the emptied
// memo) are retained — that reuse is the point of the pool — unless the
// run outgrew leafMemoKeep: the collector takes that matcher.
func releaseMatcher(m *matcher) {
	m.g, m.p = nil, nil
	clear(m.spans)
	m.inst = nil
	m.ctx = nil
	m.err = nil
	m.f, m.dense = nil, nil
	if len(m.memo) > leafMemoKeep {
		return
	}
	clear(m.memo)
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

// run performs the backtracking search until emit stops it.
func (m *matcher) run() {
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
	m.search()
}

// emit delivers the n instances that complete the current bindings — the
// one in inst to an enumerating run's callback, their number to a
// counting run's sink — and reports whether the search goes on.
func (m *matcher) emit(n int) bool {
	switch {
	case m.f != nil:
		return m.f(m.inst)
	case m.dense != nil:
		return m.dense.AddWeighted(m.inst[pattern.End], uint32(n), 0)
	}
	m.count += n
	return true
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
// enumeration order is deterministic. A counting run stops short of the
// last variable other than the end, see leaf.
func (m *matcher) search() bool {
	if m.left == 0 {
		return m.emit(1)
	}
	if x := m.sized(); x >= 0 {
		return m.leaf(x)
	}
	best, gen, bestLen, bestEdges := pattern.VarID(-1), -1, 0, 0
	for v := 0; v < m.n; v++ {
		if m.assigned[v] {
			continue
		}
		short, edges := m.shortest(pattern.VarID(v))
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
		m.rewind(best)
		for id := kb.NodeID(0); int(id) < m.g.NumNodes(); id++ {
			if !m.try(best, gen, id) {
				return false
			}
		}
		return true
	}
	// On a frozen graph a label span is ordered by (To, Dir), so
	// candidates come in node order and fits merges best's other spans
	// forward.
	m.rewind(best)
	wantDir := m.anchors[gen].wantDir
	for _, he := range m.spans[gen] {
		if he.Dir == wantDir && !m.try(best, gen, he.To) {
			return false
		}
	}
	return true
}

// shortest returns the shortest of v's label spans into the bound set,
// the first of equals, and how many it has: −1 and 0 when none.
func (m *matcher) shortest(v pattern.VarID) (short, edges int) {
	short = -1
	for i := int(m.first[v]); i < int(m.first[v+1]); i++ {
		if m.assigned[m.anchors[i].from] {
			edges++
			if short < 0 || len(m.spans[i]) < len(m.spans[short]) {
				short = i
			}
		}
	}
	return short, edges
}

// try binds v to cand if the instance side conditions and v's edges into
// the bound set allow it — gen, the edge that generated cand, needs no
// check — and searches on. It reports false when the search must stop.
func (m *matcher) try(v pattern.VarID, gen int, cand kb.NodeID) bool {
	if m.cancelled() {
		return false
	}
	if !m.admissible(v, cand) || !m.fits(v, gen, cand) {
		return true
	}
	ok := !m.bind(v, cand) || m.search()
	m.assigned[v] = false
	m.left++
	return ok
}

// sized returns the variable a counting run sizes instead of binding, or
// −1: the one unassigned variable besides the end, once all its pattern
// edges (it must have some) lead to bound variables and the end, if
// still free, has an edge into the bound set to come from.
func (m *matcher) sized() pattern.VarID {
	if m.f != nil || m.left > 2 || m.assigned[pattern.End] != (m.left == 1) {
		return -1
	}
	x := pattern.VarID(m.n - 1)
	for m.assigned[x] {
		x--
	}
	if _, edges := m.shortest(x); edges == 0 || edges < int(m.first[x+1]-m.first[x]) {
		return -1
	}
	if _, edges := m.shortest(pattern.End); m.left == 2 && edges == 0 {
		return -1
	}
	return x
}

// fits reports whether cand satisfies every pattern edge of v into the
// bound set other than gen. It seeks each span from v's cursor, so the
// candidates fits sees for v must ascend between two rewinds of v.
func (m *matcher) fits(v pattern.VarID, gen int, cand kb.NodeID) bool {
	for i := int(m.first[v]); i < int(m.first[v+1]); i++ {
		a := &m.anchors[i]
		if i != gen && m.assigned[a.from] && !kb.SeekHalfEdge(m.spans[i], &m.cur[i], cand, a.wantDir, m.sorted) {
			return false
		}
	}
	return true
}

// rewind resets v's seek cursors to the start of its spans. Every loop
// that feeds fits(v, …) ascending candidates rewinds v first. The cursors
// stay valid across the recursion below a candidate: only fits(v, …)
// reads them, and below the candidate v is bound, so nothing calls it.
func (m *matcher) rewind(v pattern.VarID) {
	clear(m.cur[m.first[v]:m.first[v+1]])
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

// leaf adds up the instances below a node where every variable but x is
// bound, without binding x. With C(x) the nodes that satisfy every
// pattern edge of x, they number |C(x)| less the bound nodes in C(x): a
// candidate fails to extend the bindings only by being bound already, and
// bound nodes are pairwise distinct, so each takes back exactly one. An
// end left without an instance is not added at all.
//
// The end may be free as well if it shares no edge with x: C(x) is then
// the same for every end candidate, each completes that many instances
// less one if it is in C(x) itself, and the two variables cost the sum of
// their candidate sets, not the product. (When they do share an edge
// every end is a new C(x), and search goes on by smallest span.)
func (m *matcher) leaf(x pattern.VarID) bool {
	n := m.size(x)
	for u := 0; u < m.n && n > 0; u++ {
		if !m.assigned[u] {
			continue
		}
		m.rewind(x) // the bound nodes come in no order
		if m.fits(x, -1, m.inst[u]) {
			n--
		}
	}
	if n == 0 || m.left == 1 {
		return n == 0 || m.emit(n)
	}
	gen, _ := m.shortest(pattern.End)
	m.rewind(pattern.End)
	m.rewind(x)
	wantDir := m.anchors[gen].wantDir
	for _, he := range m.spans[gen] {
		if he.Dir != wantDir {
			continue
		}
		if m.cancelled() {
			return false
		}
		if !m.admissible(pattern.End, he.To) || !m.fits(pattern.End, gen, he.To) {
			continue
		}
		w := n
		if m.fits(x, -1, he.To) {
			w--
		}
		if m.inst[pattern.End] = he.To; w > 0 && !m.emit(w) {
			return false
		}
	}
	return true
}

// size returns |C(x)| for an x whose pattern neighbours are all bound:
// the candidates of its shortest span that its other spans hold too, as
// try would find them. The set depends on x and those bindings alone, so
// it is counted once per run and neighbourhood; only a counting scan
// ticks tries. Cancelled, it returns 0 and the search unwinds.
func (m *matcher) size(x pattern.VarID) (n int) {
	key := leafKey{x: x}
	for _, a := range m.anchors[m.first[x]:m.first[x+1]] {
		key.at[a.from] = m.inst[a.from]
	}
	if n, ok := m.memo[key]; ok {
		return n
	}
	gen, _ := m.shortest(x)
	m.rewind(x)
	wantDir := m.anchors[gen].wantDir
	for _, he := range m.spans[gen] {
		if he.Dir != wantDir {
			continue
		}
		if m.cancelled() {
			return 0
		}
		if m.fits(x, gen, he.To) {
			n++
		}
	}
	m.memo[key] = n
	return n
}
