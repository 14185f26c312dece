package pattern

import (
	"sync"

	"rex/internal/kb"
)

// Explanation merging: the ∪f operator of Algorithm 3 (lines 24–41).
//
// Two explanations for the same entity pair are merged under a partial
// one-to-one mapping f between their non-target variables. The paper's
// requirements on f:
//
//	(1) start maps to start, end to end (implicit: both explanations
//	    target the same pair);
//	(2) a non-target variable maps to a non-target variable or nothing;
//	(3) the mapping is injective where defined;
//	(4) at least one non-target pair is matched.
//
// Requirement (4) is what makes every merge result non-decomposable, and
// the covering-path argument (Theorem 1) makes it essential, so every
// result is minimal by construction. Instances are combined pairwise,
// keeping combinations that agree on every matched variable.

// Merge implements merge(re1, re2, n): it returns all minimal
// explanations obtainable by merging re1 with re2 under some valid
// partial mapping, keeping only results with at most maxVars variables
// and at least one instance. Results are not de-duplicated against each
// other; the caller's duplication check handles that (as in the paper).
func Merge(re1, re2 *Explanation, maxVars int) []*Explanation {
	m := AcquireMerger()
	defer ReleaseMerger(m)
	var out []*Explanation
	m.Merge(re1, re2, maxVars,
		func(Key) MergeAction { return MergeTake },
		func(_ Key, ex *Explanation) { out = append(out, ex) })
	return out
}

// MergeAction tells the Merger how far to take one merge candidate,
// decided from its canonical key — after the (pooled, allocation-free)
// instance join proved the candidate non-empty, but before anything is
// materialised.
type MergeAction int

const (
	// MergeSkip discards the candidate: nothing is materialised and take
	// is not called. Correct whenever the caller has already committed an
	// explanation under the same key (the classic duplication check).
	MergeSkip MergeAction = iota
	// MergeProbe reports the candidate without materialising it: take
	// receives a nil explanation. Used by the pruned union to record
	// composition history for a pattern that already exists in the
	// current ring.
	MergeProbe
	// MergeTake materialises the merged explanation and passes it to
	// take.
	MergeTake
)

// Merger runs the ∪f enumeration with every intermediate buffer — the
// mapping search state, the merged-edge scratch, the canonical-encoding
// buffers and the hash-join tables — reused across calls, so the only
// allocations a merge performs are for explanations the caller actually
// keeps. A Merger retains no reference to any graph or explanation after
// a call returns and is freely reusable across snapshots; it is not safe
// for concurrent use (pool one per goroutine, see AcquireMerger).
type Merger struct {
	mapping []VarID
	used    []bool
	rename2 [MaxVars]VarID
	edges   []Edge
	cs      canonScratch

	// Hash-join state: heads/next chain re2's instance indexes by
	// matched-variable projection; arena accumulates accepted instances
	// flattened (total IDs each).
	heads map[InstanceKey]int32
	next  []int32
	arena []kb.NodeID

	joins JoinStats
}

// JoinStats counts what the merge candidates that reached the instance
// stage cost: Run joins were executed, Skipped were proven empty from
// the binding signatures without touching the join tables.
type JoinStats struct{ Run, Skipped int64 }

// Sub returns the counts accumulated since an earlier reading.
func (j JoinStats) Sub(earlier JoinStats) JoinStats {
	return JoinStats{Run: j.Run - earlier.Run, Skipped: j.Skipped - earlier.Skipped}
}

// JoinStats reads the merger's join counters. They only grow, across
// calls and pool round-trips; a caller reporting one query's share
// reads them before and after and subtracts.
func (m *Merger) JoinStats() JoinStats { return m.joins }

// NewMerger returns a Merger with empty (lazily grown) buffers.
func NewMerger() *Merger {
	return &Merger{heads: make(map[InstanceKey]int32)}
}

var mergerPool = sync.Pool{New: func() any { return NewMerger() }}

// AcquireMerger takes a Merger from the process-wide pool.
func AcquireMerger() *Merger { return mergerPool.Get().(*Merger) }

// ReleaseMerger returns a Merger to the pool. The warm buffers are the
// point; they hold no pointers into caller state. A merger whose join
// tables outgrew the retention bound is dropped instead — Go maps never
// shrink, so re-pooling it would pin a pathological query's footprint
// for the life of the process.
func ReleaseMerger(m *Merger) {
	if m.Oversized(mergerRetainedCap) {
		return
	}
	mergerPool.Put(m)
}

// mergerRetainedCap bounds the elements a pooled Merger may keep
// between uses.
const mergerRetainedCap = 1 << 16

// Oversized reports whether the merger's reusable buffers grew past
// limit elements; pools use it to decide between reuse and release.
func (m *Merger) Oversized(limit int) bool {
	return cap(m.arena) > limit || len(m.heads) > limit || cap(m.next) > limit
}

// Merge enumerates the valid partial mappings of merge(re1, re2, n) in
// the same order as the package-level Merge. Each candidate's instance
// sets are hash-joined in pooled scratch; for non-empty candidates the
// merged pattern's canonical key is resolved and decide picks the action
// (see MergeAction). take is invoked — in enumeration order — once per
// candidate whose join was non-empty and whose action was MergeProbe
// (ex == nil) or MergeTake (ex materialised).
func (m *Merger) Merge(re1, re2 *Explanation, maxVars int, decide func(Key) MergeAction, take func(Key, *Explanation)) {
	p1, p2 := re1.P, re2.P
	free1 := p1.NumVars() - 2
	free2 := p2.NumVars() - 2
	if free1 == 0 || free2 == 0 {
		// Requirement (4) cannot be met: nothing to match.
		return
	}
	if cap(m.mapping) < free2 {
		m.mapping = make([]VarID, free2)
	}
	if cap(m.used) < free1 {
		m.used = make([]bool, free1)
	}
	mapping := m.mapping[:free2]
	used := m.used[:free1]
	for i := range used {
		used[i] = false
	}
	// mapping[j] is the p1 variable matched to p2 variable j+2, or -1.
	var rec func(j, matched int)
	rec = func(j, matched int) {
		if j == free2 {
			if matched == 0 {
				return
			}
			m.candidate(re1, re2, mapping, maxVars, decide, take)
			return
		}
		mapping[j] = -1
		rec(j+1, matched)
		for i := 0; i < free1; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			mapping[j] = VarID(i + 2)
			rec(j+1, matched+1)
			used[i] = false
		}
		mapping[j] = -1
	}
	rec(0, 0)
}

// candidate processes one mapping: renames, normalises the merged edge
// multiset in scratch, resolves the canonical key, and — if the caller
// wants the candidate — joins the instance sets and materialises.
func (m *Merger) candidate(re1, re2 *Explanation, mapping []VarID, maxVars int, decide func(Key) MergeAction, take func(Key, *Explanation)) {
	p1, p2 := re1.P, re2.P
	// Assign variable IDs in the merged pattern: p1 variables keep their
	// IDs; unmatched p2 variables get fresh IDs.
	rename2 := m.rename2[:p2.NumVars()]
	rename2[Start], rename2[End] = Start, End
	next := VarID(p1.NumVars())
	for j := 0; j < p2.NumVars()-2; j++ {
		if mapping[j] >= 0 {
			rename2[j+2] = mapping[j]
		} else {
			rename2[j+2] = next
			next++
		}
	}
	total := int(next)
	if total > maxVars {
		return
	}

	// A candidate with no instance — the common case — must cost as
	// little as possible. Most are proven empty here: instances can only
	// agree on a matched variable pair whose binding signatures overlap.
	if re1.signed && re2.signed {
		for j, v := range mapping {
			if v >= 0 && re1.sigs[v].disjoint(&re2.sigs[j+2]) {
				m.joins.Skipped++
				return
			}
		}
	}
	// The rest join their instance sets before anything else: the pooled
	// hash-join is cheap next to the (factorial) canonical-form
	// computation, which only non-empty candidates pay.
	m.joins.Run++
	n := m.joinInstances(re1, re2, mapping, rename2, total)
	if n == 0 {
		return
	}

	// Merged edge multiset in New's normal form: per-edge orientation
	// normalisation, canonical sort, dedup — all in the reused scratch.
	schema := p1.Schema()
	m.edges = m.edges[:0]
	m.edges = append(m.edges, p1.Edges()...)
	for _, e := range p2.Edges() {
		u, v := rename2[e.U], rename2[e.V]
		if !schema.LabelDirected(e.Label) && u > v {
			u, v = v, u
		}
		m.edges = append(m.edges, Edge{U: u, V: v, Label: e.Label})
	}
	insertionSortEdges(m.edges)
	m.edges = dedupEdges(m.edges)

	enc := canonEncode(&m.cs, schema, total, m.edges, nil)
	key, canon := internKeyBytes(enc)
	action := decide(key)
	if action == MergeSkip {
		return
	}
	if action == MergeProbe {
		take(key, nil)
		return
	}
	p := newInterned(schema, total, m.edges, canon, key)
	// Exactly two allocations for the instance set: one flat ID backing
	// array and one header slice.
	backing := make([]kb.NodeID, n*total)
	copy(backing, m.arena[:n*total])
	insts := make([]Instance, n)
	for i := range insts {
		insts[i] = Instance(backing[i*total : (i+1)*total])
	}
	ex := &Explanation{P: p, Instances: insts}
	ex.Sign()
	take(key, ex)
}

// joinInstances hash-joins the two instance sets on the matched
// variables into the reused arena, returning the number of accepted
// (injective) merged instances; the arena holds them flattened, total
// IDs each, ordered by re1's instances and, within one, by re2's. A
// merged instance carries all of i1 and, renamed, all of i2, so it
// determines the pair that produced it: duplicate-free inputs (every
// builder de-duplicates) give duplicate-free output with no check.
func (m *Merger) joinInstances(re1, re2 *Explanation, mapping []VarID, rename2 []VarID, total int) int {
	var matched1, matched2 [MaxVars]VarID
	nm := 0
	for j, v := range mapping {
		if v >= 0 {
			matched2[nm] = VarID(j + 2)
			matched1[nm] = v
			nm++
		}
	}
	// joinKey projects an instance onto the matched variables; the
	// resulting InstanceKey is the hash-join key, built without
	// allocating.
	joinKey := func(in Instance, vars []VarID) InstanceKey {
		var k InstanceKey
		k.n = int8(len(vars))
		for i, v := range vars {
			k.ids[i] = in[v]
		}
		return k
	}
	// Index re2's instances by projection as forward chains: heads holds
	// the first instance index per key, next the following one. Built in
	// reverse so chain traversal preserves instance order.
	clear(m.heads)
	if cap(m.next) < len(re2.Instances) {
		m.next = make([]int32, len(re2.Instances))
	}
	nxt := m.next[:len(re2.Instances)]
	for i := len(re2.Instances) - 1; i >= 0; i-- {
		k := joinKey(re2.Instances[i], matched2[:nm])
		if head, ok := m.heads[k]; ok {
			nxt[i] = head
		} else {
			nxt[i] = -1
		}
		m.heads[k] = int32(i)
	}

	m.arena = m.arena[:0]
	n := 0
	var buf [MaxVars]kb.NodeID
	for _, i1 := range re1.Instances {
		k := joinKey(i1, matched1[:nm])
		idx, ok := m.heads[k]
		if !ok {
			continue
		}
		for ; idx >= 0; idx = nxt[idx] {
			i2 := re2.Instances[idx]
			merged := Instance(buf[:total])
			copy(merged, i1)
			for v2 := 2; v2 < len(i2); v2++ {
				merged[rename2[v2]] = i2[v2]
			}
			if !injective(merged) {
				continue
			}
			m.arena = append(m.arena, merged...)
			n++
		}
	}
	return n
}

// injective reports whether all variable bindings are distinct. REX
// instances are injective embeddings; both joined instances already are,
// so only collisions between one side's private variables and the other
// side's bindings can occur, but the full quadratic check is trivial at
// these sizes.
func injective(in Instance) bool {
	for i := 1; i < len(in); i++ {
		for j := 0; j < i; j++ {
			if in[i] == in[j] {
				return false
			}
		}
	}
	return true
}

// FromPathInstance builds the (pattern, instance) pair for one simple
// path in the knowledge base. nodes is the full node sequence from start
// to end; steps[i] is the half-edge taken from nodes[i] to nodes[i+1].
// Internal path nodes become variables 2,3,... in path order; the
// canonical key makes the numbering immaterial for de-duplication.
func FromPathInstance(g *kb.Graph, nodes []kb.NodeID, steps []kb.HalfEdge) (*Pattern, Instance, error) {
	L := len(steps)
	if len(nodes) != L+1 {
		return nil, nil, errPathShape
	}
	varOf := make([]VarID, L+1)
	varOf[0] = Start
	varOf[L] = End
	for i := 1; i < L; i++ {
		varOf[i] = VarID(i + 1) // nodes[1] -> v2, nodes[2] -> v3, ...
	}
	edges := make([]Edge, L)
	for i, he := range steps {
		u, v := varOf[i], varOf[i+1]
		if g.LabelDirected(he.Label) && he.Dir == kb.In {
			u, v = v, u // the underlying edge points nodes[i+1] → nodes[i]
		}
		edges[i] = Edge{U: u, V: v, Label: he.Label}
	}
	p, err := New(g, L+1, edges)
	if err != nil {
		return nil, nil, err
	}
	inst := make(Instance, L+1)
	inst[Start] = nodes[0]
	inst[End] = nodes[L]
	for i := 1; i < L; i++ {
		inst[varOf[i]] = nodes[i]
	}
	return p, inst, nil
}

var errPathShape = &pathShapeError{}

type pathShapeError struct{}

func (*pathShapeError) Error() string {
	return "pattern: node sequence and step list lengths disagree"
}
