package enumerate

import (
	"context"
	"time"

	"rex/internal/kb"
	"rex/internal/obs"
	"rex/internal/pattern"
)

// Path enumeration at the instance level (Section 3.2). Every
// algorithm returns exactly the set of simple paths between the targets
// with length ≤ maxLen; they differ in how much of the graph they touch
// and in what order, which is what Figure 7 measures. PathPrioritized
// has one implementation per kind of request: the activation-ordered
// frontier (pathEnumPrioritized) when a Budget can stop the search, the
// streaming join (pathEnumExhaustive) when nothing can — an order only
// matters to a search that can stop.
//
// Paths are represented as fixed-size values throughout — a partial path
// is a small struct of inline arrays bounded by pattern.MaxVars, and a
// finished path is its comparable pathKey — so growing, copying and
// joining paths never touches the allocator; the only allocations are
// the amortised growth of the (pooled, reused) frontier and result
// buffers.
//
// Every enumerator checks its context at a bounded interval — every
// ctxCheckInterval expansion steps, not per edge — so an expired deadline
// aborts enumeration mid-flight at a cost that stays invisible on the
// happy path.

// ctxCheckInterval bounds the number of expansion steps between context
// checks in the enumeration loops.
const ctxCheckInterval = 256

// cancelCheck counts expansion steps (n) and polls the context once per
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

// partial is a simple path grown from one target during enumeration:
// nodes[0] is the owning target. It is a fixed-size value — extending a
// path is a struct copy, not an allocation; lengths are bounded by the
// pattern size limit, which the Config normalisation caps at
// pattern.MaxVars nodes.
type partial struct {
	n     int8 // number of nodes ≥ 1; steps are n-1
	nodes [pattern.MaxVars]kb.NodeID
	steps [pattern.MaxVars - 1]kb.HalfEdge
}

func (p *partial) last() kb.NodeID { return p.nodes[p.n-1] }
func (p *partial) length() int     { return int(p.n) - 1 }

func (p *partial) contains(id kb.NodeID) bool {
	for i := int8(0); i < p.n; i++ {
		if p.nodes[i] == id {
			return true
		}
	}
	return false
}

// extend returns a copy of p grown by one half-edge.
func (p *partial) extend(he kb.HalfEdge) partial {
	np := *p
	np.nodes[np.n] = he.To
	np.steps[np.n-1] = he
	np.n++
	return np
}

// makePathKey packs a full start→end path into its comparable identity.
func makePathKey(nodes []kb.NodeID, steps []kb.HalfEdge) pathKey {
	var k pathKey
	k.n = int8(len(nodes))
	copy(k.nodes[:], nodes)
	for i, s := range steps {
		k.steps[i] = pathStepKey{label: s.Label, dir: s.Dir}
	}
	return k
}

// pathEnumNaive enumerates every length-limited simple path starting at
// start by depth-first search and keeps the ones that end at end. This is
// the strawman PathEnumNaive of Section 5.2: it explores the full
// neighborhood of the start entity regardless of the end entity.
func pathEnumNaive(ctx context.Context, g *kb.Graph, start, end kb.NodeID, maxLen int, out []pathKey) ([]pathKey, error) {
	if maxLen <= 0 || start == end {
		return out, nil
	}
	cur := partial{n: 1}
	cur.nodes[0] = start
	onPath := make(map[kb.NodeID]bool, maxLen+1)
	onPath[start] = true
	check := cancelCheck{ctx: ctx}
	var dfs func(at kb.NodeID) bool
	dfs = func(at kb.NodeID) bool {
		if check.step() != nil {
			return false
		}
		for _, he := range g.Neighbors(at) {
			if he.To == end {
				full := cur.extend(he)
				out = append(out, makePathKey(full.nodes[:full.n], full.steps[:full.n-1]))
				continue
			}
			if onPath[he.To] || cur.length()+1 >= maxLen {
				continue
			}
			onPath[he.To] = true
			cur.nodes[cur.n] = he.To
			cur.steps[cur.n-1] = he
			cur.n++
			ok := dfs(he.To)
			cur.n--
			onPath[he.To] = false
			if !ok {
				return false
			}
		}
		return true
	}
	dfs(start)
	if check.err != nil {
		return nil, check.err
	}
	return out, nil
}

// joinToKey stitches a forward partial path (from start) and a backward
// partial path (from end) meeting at the same terminal node into a full
// path key, or returns false when the two sides share an interior node.
// The backward path is reversed; each reversed step flips the half-edge
// perspective (Out becomes In and vice versa).
func joinToKey(fwd, bwd *partial) (pathKey, bool) {
	// Disjointness except at the meeting node. Both sides are short, so
	// the quadratic scan beats allocating a set.
	for i := int8(0); i < fwd.n; i++ {
		for j := int8(0); j < bwd.n; j++ {
			if fwd.nodes[i] != bwd.nodes[j] {
				continue
			}
			if i == fwd.n-1 && j == bwd.n-1 {
				continue // the meeting node itself
			}
			return pathKey{}, false
		}
	}
	var k pathKey
	k.n = fwd.n + bwd.n - 1
	copy(k.nodes[:], fwd.nodes[:fwd.n])
	for i := int8(0); i < fwd.n-1; i++ {
		k.steps[i] = pathStepKey{label: fwd.steps[i].Label, dir: fwd.steps[i].Dir}
	}
	// Walk the backward path from its terminal (== meet) toward end.
	at := fwd.n
	for i := bwd.n - 2; i >= 0; i-- {
		// bwd.steps[i] goes bwd.nodes[i] → bwd.nodes[i+1]; the full path
		// traverses it from bwd.nodes[i+1] to bwd.nodes[i].
		he := bwd.steps[i]
		k.nodes[at] = bwd.nodes[i]
		k.steps[at-1] = pathStepKey{label: he.Label, dir: he.Dir.Reverse()}
		at++
	}
	return k, true
}

// canonicalSplit reports whether a forward length a and backward length b
// form the canonical split of a path of length a+b: a == ⌈(a+b)/2⌉.
// Joining only at the canonical split yields each full path exactly once.
func canonicalSplit(a, b int) bool { return a == b || a == b+1 }

// pathEnumBasic is the bidirectional enumeration adapted from BANKS
// (Section 3.2): all simple partial paths of length ≤ ⌈l/2⌉ grow from the
// start and ≤ ⌊l/2⌋ from the end, shorter first; opposite partial paths
// ending at a common node join into full paths.
func pathEnumBasic(ctx context.Context, g *kb.Graph, start, end kb.NodeID, maxLen int, out []pathKey) ([]pathKey, error) {
	if maxLen <= 0 || start == end {
		return out, nil
	}
	capFwd := (maxLen + 1) / 2
	capBwd := maxLen / 2

	check := &cancelCheck{ctx: ctx}
	fwd, err := collectPartials(g, start, end, capFwd, forwardSide, check)
	if err != nil {
		return nil, err
	}
	bwd, err := collectPartials(g, end, start, capBwd, backwardSide, check)
	if err != nil {
		return nil, err
	}

	byMeetBwd := make(map[kb.NodeID][]partial)
	for _, p := range bwd {
		byMeetBwd[p.last()] = append(byMeetBwd[p.last()], p)
	}
	for i := range fwd {
		f := &fwd[i]
		if err := check.step(); err != nil {
			return nil, err
		}
		bs := byMeetBwd[f.last()]
		for j := range bs {
			b := &bs[j]
			if !canonicalSplit(f.length(), b.length()) {
				continue
			}
			if f.length()+b.length() == 0 {
				continue
			}
			if k, ok := joinToKey(f, b); ok {
				out = append(out, k)
			}
		}
	}
	return out, nil
}

// side distinguishes expansion rules for the two targets.
type side int

const (
	forwardSide  side = 0 // grows from start; may terminate at end but not pass through it
	backwardSide side = 1 // grows from end; never touches start
)

// collectPartials breadth-first enumerates the simple partial paths of
// length ≤ cap from origin. other is the opposite target: the forward
// side records paths that reach it but never expands beyond; the backward
// side skips it entirely (a path suffix never contains the start).
func collectPartials(g *kb.Graph, origin, other kb.NodeID, cap int, s side, check *cancelCheck) ([]partial, error) {
	seed := partial{n: 1}
	seed.nodes[0] = origin
	out := []partial{seed}
	frontier := []partial{seed}
	for depth := 0; depth < cap && len(frontier) > 0; depth++ {
		var next []partial
		for i := range frontier {
			p := &frontier[i]
			if err := check.step(); err != nil {
				return nil, err
			}
			if p.last() == other {
				continue // terminal: never expand beyond the opposite target
			}
			for _, he := range g.Neighbors(p.last()) {
				if he.To == origin || p.contains(he.To) {
					continue
				}
				if s == backwardSide && he.To == other {
					continue
				}
				np := p.extend(he)
				out = append(out, np)
				next = append(next, np)
			}
		}
		frontier = next
	}
	return out, nil
}

// pathEnumExhaustive answers the PathPrioritized request no budget can
// stop. The caps are fixed at (⌈l/2⌉, ⌊l/2⌋) and paths join only at the
// canonical split, so an exhaustive search expands every under-cap
// partial whatever the order; activation order decides which paths come
// first, and groupPaths sorts them anyway. So there is no order: the
// backward side is materialised breadth-first into st.bwd, each partial
// chained to the others at its terminal through the dense index
// (st.head, st.next), and the forward side is walked depth-first on one
// partial used as a stack (joinForward), joining at every step and
// storing nothing — a leaf under a hub costs one array read.
// Expansions count expanded partials, one adjacency scan each.
func (st *enumState) pathEnumExhaustive(ctx context.Context, g *kb.Graph, start, end kb.NodeID, maxLen int) ([]pathKey, error) {
	st.out = st.out[:0]
	if maxLen <= 0 || start == end {
		return st.out, nil
	}
	st.sizeIndex(g.NumNodes())
	defer st.resetIndex()
	check := cancelCheck{ctx: ctx}

	// Backward: never through start, so nothing is chained there.
	seed := partial{n: 1}
	seed.nodes[0] = end
	st.bwd, st.next = append(st.bwd[:0], seed), append(st.next[:0], 0)
	st.setHead(end, 1)
	for i := 0; i < len(st.bwd) && st.bwd[i].length() < maxLen/2; i++ {
		if err := check.step(); err != nil {
			return nil, err
		}
		p := st.bwd[i] // a copy: the appends below may move the array
		for _, he := range g.Neighbors(p.last()) {
			if he.To == start || p.contains(he.To) {
				continue
			}
			st.bwd, st.next = append(st.bwd, p.extend(he)), append(st.next, st.head[he.To])
			st.setHead(he.To, int32(len(st.bwd)))
		}
	}

	st.fwd = partial{n: 1}
	st.fwd.nodes[0] = start
	if err := st.joinForward(g, end, (maxLen+1)/2, &check); err != nil {
		return nil, err
	}
	obs.FromContext(ctx).AddExpansions(int64(check.n))
	return st.out, nil
}

// joinForward scans the neighbours of st.fwd's terminal: each simple
// extension is pushed, joined with the backward partials chained at its
// terminal that canonicalSplit admits, expanded in turn when under the
// cap and not at end (the forward side never goes past it), and popped.
func (st *enumState) joinForward(g *kb.Graph, end kb.NodeID, capFwd int, check *cancelCheck) error {
	if err := check.step(); err != nil {
		return err
	}
	f := &st.fwd
	leaf := f.length()+1 == capFwd
	for _, he := range g.Neighbors(f.last()) {
		h := st.head[he.To]
		if h == 0 && leaf || f.contains(he.To) {
			continue
		}
		f.nodes[f.n], f.steps[f.n-1] = he.To, he
		f.n++
		for ; h != 0; h = st.next[h-1] {
			if b := &st.bwd[h-1]; canonicalSplit(f.length(), b.length()) {
				if k, ok := joinToKey(f, b); ok {
					st.out = append(st.out, k)
				}
			}
		}
		if !leaf && he.To != end {
			if err := st.joinForward(g, end, capFwd, check); err != nil {
				return err
			}
		}
		f.n--
	}
	return nil
}

// pathEnumPrioritized is the BANKS2 adaptation, which serves the requests
// a Budget can stop: bidirectional expansion where the next node to
// expand is chosen by activation score. A target's initial activation is
// 1/degree; expanding a node zeroes its activation and spreads it to
// each neighbor divided by the neighbor's degree, so expansion through
// high-degree hubs is postponed — ideally until the opposite side has
// met the frontier more cheaply.
//
// One entry is popped at a time, in strict activation order: its pending
// partials are extended by every neighbour, each extension registered
// and joined as it is made (addPartial), and only then does the entry
// spread its activation. Every partial path's terminal is re-activated
// by the expansion that created it, so an untruncated search expands
// every under-cap partial and returns the set pathEnumExhaustive does.
//
// All per-query storage — the node-state arena and its dense index and
// the priority queue — lives in the pooled enumState and is reused
// across queries.
//
// The budget makes the search anytime: expansions are counted and the
// deadline polled per popped entry; when either expires the paths
// completed so far are returned with truncated = true. Because
// activation ordering postpones high-degree hubs, the truncated set
// holds exactly the cheap, high-value paths the paper's anytime argument
// (Section 5) keeps, and an expansion budget's set is a prefix of any
// larger budget's expansion sequence.
func (st *enumState) pathEnumPrioritized(ctx context.Context, g *kb.Graph, start, end kb.NodeID, maxLen int, bud Budget) ([]pathKey, bool, error) {
	st.states, st.pq, st.out = st.states[:0], st.pq[:0], st.out[:0]
	if maxLen <= 0 || start == end {
		return nil, false, nil
	}
	st.sizeIndex(g.NumNodes())
	defer st.resetIndex()
	hasDeadline := !bud.Deadline.IsZero()
	tr := obs.FromContext(ctx)
	expansions := 0
	truncated := false
	caps := [2]int{(maxLen + 1) / 2, maxLen / 2}
	targets := [2]kb.NodeID{start, end}

	for s := forwardSide; s <= backwardSide; s++ {
		deg := g.Degree(targets[s])
		a := 1.0
		if deg > 0 {
			a = 1.0 / float64(deg)
		}
		seed := partial{n: 1}
		seed.nodes[0] = targets[s]
		st.addPartial(s, seed, a)
	}

	// The cancellation check steps once per popped entry — the same
	// expansion-step granularity as the other enumerators.
	check := cancelCheck{ctx: ctx}
	for st.pq.Len() > 0 {
		if bud.MaxExpansions > 0 && expansions >= bud.MaxExpansions {
			truncated = true
			tr.Truncated(obs.StageEnumerate, obs.TruncExpansions)
			break
		}
		if hasDeadline && time.Now().After(bud.Deadline) {
			truncated = true
			tr.Truncated(obs.StageEnumerate, obs.TruncDeadline)
			break
		}
		if err := check.step(); err != nil {
			return nil, false, err
		}
		e := st.pq.pop()
		ns := &st.states[st.stateFor(e.node)]
		if ns.act[e.s] == 0 {
			continue // already expanded since this entry was pushed
		}
		spread := ns.act[e.s]
		ns.act[e.s] = 0

		// The forward side never expands beyond the end entity; the
		// backward side never sits on the start entity at all.
		if e.s == forwardSide && e.node == end {
			continue
		}
		pending := ns.partial[e.s][ns.expanded[e.s]:]
		ns.expanded[e.s] = int32(len(ns.partial[e.s]))
		expansions++
		st.extend(g, e, pending, caps[e.s], targets, bud.Deadline)

		// Spread activation to the neighbors with pending work.
		for _, he := range g.Neighbors(e.node) {
			if he.To == start || he.To == end {
				continue
			}
			ni := st.head[he.To]
			if ni == 0 {
				continue // never touched: nothing pending on this side
			}
			ns := &st.states[ni-1]
			if len(ns.partial[e.s]) == int(ns.expanded[e.s]) {
				continue // nothing pending on this side
			}
			d := g.Degree(he.To)
			inc := spread
			if d > 0 {
				inc = spread / float64(d)
			}
			ns.act[e.s] += inc
			st.pq.push(actEntry{node: he.To, s: e.s, act: ns.act[e.s]})
		}
	}
	tr.AddExpansions(int64(expansions))
	return st.out, truncated, nil
}

// extend grows the popped entry's pending partials by every neighbour of
// its node and registers each extension at its own terminal. That
// terminal is never e.node (a simple path does not revisit it), so
// addPartial leaves pending alone. A non-zero deadline is polled at a
// bounded interval so one huge expansion (a high-degree hub with many
// pending paths) cannot overshoot the anytime budget by its own full
// cost; cutting the extension set short only shrinks the truncated
// result, which the budget contract allows.
func (st *enumState) extend(g *kb.Graph, e actEntry, pending []partial, maxLen int, targets [2]kb.NodeID, deadline time.Time) {
	checked := 0
	for i := range pending {
		p := &pending[i]
		if p.length() >= maxLen {
			continue
		}
		for _, he := range g.Neighbors(e.node) {
			checked++
			if checked%ctxCheckInterval == 0 && !deadline.IsZero() && time.Now().After(deadline) {
				return
			}
			if he.To == targets[e.s] || p.contains(he.To) {
				continue
			}
			if e.s == backwardSide && he.To == targets[forwardSide] {
				continue
			}
			st.addPartial(e.s, p.extend(he), 0)
		}
	}
}

// addPartial registers a new partial path at its terminal node, joins it
// against the opposite side, and makes the terminal expandable.
func (st *enumState) addPartial(s side, p partial, activation float64) {
	x := p.last()
	si := st.stateFor(x)
	ns := &st.states[si]
	ns.partial[s] = append(ns.partial[s], p)
	// join the fresh path with every opposite-side partial already at x,
	// using the canonical split so each full path is produced once.
	opp := ns.partial[1-s]
	for qi := range opp {
		q := &opp[qi]
		var f, b *partial
		if s == forwardSide {
			f, b = &p, q
		} else {
			f, b = q, &p
		}
		if !canonicalSplit(f.length(), b.length()) || f.length()+b.length() == 0 {
			continue
		}
		if k, ok := joinToKey(f, b); ok {
			st.out = append(st.out, k)
		}
	}
	if activation > 0 {
		ns.act[s] += activation
		st.pq.push(actEntry{node: x, s: s, act: ns.act[s]})
	}
}

// actEntry is a priority-queue element for activation-driven expansion.
type actEntry struct {
	node kb.NodeID
	s    side
	act  float64
}

// actQueue is a max-heap over activation scores with deterministic
// tie-breaking by (node, side). The sift loops are container/heap's,
// typed: through heap.Interface every Push and Pop boxed its actEntry.
type actQueue []actEntry

func (q actQueue) Len() int { return len(q) }
func (q actQueue) less(i, j int) bool {
	if q[i].act != q[j].act {
		return q[i].act > q[j].act
	}
	if q[i].node != q[j].node {
		return q[i].node < q[j].node
	}
	return q[i].s < q[j].s
}

func (q *actQueue) push(e actEntry) {
	*q = append(*q, e)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *actQueue) pop() actEntry {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}
