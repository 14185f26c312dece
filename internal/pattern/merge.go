package pattern

import (
	"slices"
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
// decided from its canonical key — after a semi-join proved the
// candidate non-empty, but before its instance set is joined in full
// or anything is materialised.
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
	// MergeTake joins the candidate's instance sets in full, materialises
	// the merged explanation and passes it to take.
	MergeTake
)

// Merger runs the ∪f enumeration with every intermediate buffer — the
// mapping search state, the merged-edge scratch, the canonical-encoding
// buffers, the binding index and the join arena — reused across calls,
// so the only allocations a merge performs are for explanations the
// caller actually keeps. It is not safe for concurrent use (pool one per
// goroutine, see AcquireMerger).
//
// Per Merge(re1, re2) it works in four steps, each paid only by what
// survives the one before:
//
//  1. Mask. Two variables can be matched only if some node is bound to
//     both, so for every free2 × free1 pair of non-target variables it
//     tests whether their sorted lists of distinct bindings intersect.
//     The mapping search never enumerates a mapping that matches a
//     disjoint pair: their join is empty, exactly. A mapping that fits
//     maxVars matches a minimum number of p2's variables, so the mask
//     stops as soon as too few p2 variables with a shared binding can
//     be left.
//  2. Semi-join. A mapping that passes runs the instance join only up to
//     its first injective merged instance.
//  3. Key. A non-empty candidate's canonical key is resolved in scratch
//     and decide picks the action.
//  4. Full join, for MergeTake only: the join resumes where the
//     semi-join stopped and the result is materialised.
//
// The binding lists and the join index are built per explanation at its
// first merge and kept for the union run (the caller's sequence of
// merges over one set of explanations): the right-hand side of every
// union merge is a path explanation, so each path is indexed once per
// run rather than once per join. Reset ends a run; ReleaseMerger does it
// too. The Merger then retains no reference to any graph or explanation
// and is freely reusable across snapshots.
type Merger struct {
	mapping []VarID
	used    []bool
	rename2 [MaxVars]VarID
	edges   []Edge
	cs      canonScratch

	// Binding index of the run: index maps an explanation to its first
	// column in cols, one column per non-target variable (see columns).
	// A column's distinct bindings are vals[off:off+nv], ascending. Once
	// a join has probed the column (see grouped), starts[soff+k] is where
	// the instances binding vals[off+k] begin in perm[poff:poff+n],
	// instance indexes grouped by binding and ascending within a group.
	index   map[*Explanation]int32
	re1     *Explanation // the last left-hand side and its first column
	base1   int32
	cols    []column
	vals    []kb.NodeID
	starts  []int32
	perm    []int32
	idBuf   []kb.NodeID
	sortBuf []uint64

	// arena accumulates a taken candidate's merged instances flattened,
	// total IDs each.
	arena []kb.NodeID

	joins JoinStats
}

type column struct {
	off, nv       int32
	soff, poff, n int32 // soff < 0 until grouped
}

// JoinStats counts what the merge candidates cost at the instance stage:
// Run candidates were joined (a semi-join to the first merged instance,
// completed only for a taken candidate), and Skipped pairs of non-target
// variables were tested by the mask and found to share no bound node —
// each one removes every mapping that would match the pair, unjoined.
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
	return &Merger{index: make(map[*Explanation]int32)}
}

var mergerPool = sync.Pool{New: func() any { return NewMerger() }}

// AcquireMerger takes a Merger from the process-wide pool.
func AcquireMerger() *Merger { return mergerPool.Get().(*Merger) }

// ReleaseMerger ends the merger's run and returns it to the pool. The
// warm buffers are the point; they hold no pointers into caller state. A
// merger whose buffers outgrew the retention bound is dropped instead:
// re-pooling it would pin a pathological query's footprint for the life
// of the process.
func ReleaseMerger(m *Merger) {
	m.Reset()
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
	return cap(m.arena) > limit || cap(m.perm) > limit || cap(m.sortBuf) > limit ||
		cap(m.idBuf) > limit || cap(m.vals) > limit || cap(m.cols) > limit
}

// Reset ends a union run: it forgets every explanation's binding index,
// keeping the storage for the next run. An explanation must not change
// while a run holds its index.
func (m *Merger) Reset() {
	clear(m.index)
	m.re1 = nil
	m.cols = m.cols[:0]
	m.vals = m.vals[:0]
	m.starts = m.starts[:0]
	m.perm = m.perm[:0]
}

// columns returns the index of ex's first column, building one column per
// non-target variable at ex's first merge of the run: the variable's
// bindings, sorted and de-duplicated.
func (m *Merger) columns(ex *Explanation) int32 {
	if base, ok := m.index[ex]; ok {
		return base
	}
	base := int32(len(m.cols))
	m.index[ex] = base
	for v := 2; v < ex.P.NumVars(); v++ {
		ids := m.idBuf[:0]
		for _, in := range ex.Instances {
			ids = append(ids, in[v])
		}
		slices.Sort(ids)
		m.idBuf = ids
		off := int32(len(m.vals))
		for i, id := range ids {
			if i == 0 || id != ids[i-1] {
				m.vals = append(m.vals, id)
			}
		}
		m.cols = append(m.cols, column{off: off, nv: int32(len(m.vals)) - off, soff: -1})
	}
	return base
}

func (m *Merger) distinct(c column) []kb.NodeID { return m.vals[c.off : c.off+c.nv] }

// grouped returns column ci, of ex's variable v, with ex's instances
// grouped by binding, building the groups at the column's first probe:
// the instances are sorted by (binding, instance index) as packed
// integers, and each run of equal bindings is one group. Only the probed
// side of a join — a path explanation, in a union — is ever grouped.
func (m *Merger) grouped(ex *Explanation, ci int32, v VarID) column {
	c := &m.cols[ci]
	if c.soff >= 0 {
		return *c
	}
	buf := m.sortBuf[:0]
	for i, in := range ex.Instances {
		buf = append(buf, uint64(uint32(in[v]))<<32|uint64(uint32(i)))
	}
	slices.Sort(buf)
	m.sortBuf = buf
	c.soff, c.poff, c.n = int32(len(m.starts)), int32(len(m.perm)), int32(len(buf))
	for i, x := range buf {
		if i == 0 || x>>32 != buf[i-1]>>32 {
			m.starts = append(m.starts, int32(i))
		}
		m.perm = append(m.perm, int32(uint32(x)))
	}
	return *c
}

// group returns the instance indexes of grouped column c's k-th distinct
// binding.
func (m *Merger) group(c column, k int) []int32 {
	lo, hi := m.starts[c.soff+int32(k)], c.n
	if int32(k+1) < c.nv {
		hi = m.starts[c.soff+int32(k)+1]
	}
	return m.perm[c.poff+lo : c.poff+hi]
}

// intersects reports whether two ascending lists share a value. It walks
// the shorter and gallops through the longer from a cursor (doubling
// steps, then a binary search of the last one, as kb.SeekHalfEdge does),
// so a test costs O(short · log(long/short)) (Demaine, López-Ortiz and
// Munro, SODA 2000).
func intersects(a, b []kb.NodeID) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 || a[len(a)-1] < b[0] || b[len(b)-1] < a[0] {
		return false
	}
	lo := 0
	for _, x := range a {
		if b[lo] < x {
			// b[lo] < x ≤ b[hi] (or hi is past the end): the first
			// entry ≥ x lies in (lo, hi].
			hi, step := lo+1, 1
			for hi < len(b) && b[hi] < x {
				lo = hi
				step <<= 1
				hi = lo + step
			}
			hi = min(hi, len(b))
			for lo++; lo < hi; {
				mid := int(uint(lo+hi) >> 1)
				if b[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(b) {
				return false
			}
		}
		if b[lo] == x {
			return true
		}
	}
	return false
}

// Merge enumerates the valid partial mappings of merge(re1, re2, n) in
// the same order as the package-level Merge, leaving out every mapping
// that matches a pair of variables with disjoint bindings (see Merger).
// For each remaining candidate whose instance sets join to a non-empty
// set, the merged pattern's canonical key is resolved and decide picks
// the action (see MergeAction). take is invoked — in enumeration order —
// once per such candidate whose action was MergeProbe (ex == nil) or
// MergeTake (ex materialised).
func (m *Merger) Merge(re1, re2 *Explanation, maxVars int, decide func(Key) MergeAction, take func(Key, *Explanation)) {
	p1, p2 := re1.P, re2.P
	free1 := p1.NumVars() - 2
	free2 := p2.NumVars() - 2
	if free1 == 0 || free2 == 0 {
		// Requirement (4) cannot be met: nothing to match.
		return
	}
	// A union merges one explanation with path after path: its columns
	// are looked up once.
	if re1 != m.re1 {
		m.re1, m.base1 = re1, m.columns(re1)
	}
	base1, base2 := m.base1, m.columns(re2)
	// Every unmatched p2 variable is a new variable of the merged
	// pattern, so a mapping that fits maxVars matches at least need of
	// them (and one, by requirement (4)).
	need := max(1, p1.NumVars()+free2-maxVars)
	// compat[j] has bit i set when p2 variable j+2 and p1 variable i+2
	// share a binding; rows counts the j with some bit set. The mask
	// stops as soon as too few rows are left to make up need.
	var compat [MaxVars]uint32
	rows := 0
	for j := 0; j < free2; j++ {
		if rows+free2-j < need {
			return
		}
		b := m.distinct(m.cols[base2+int32(j)])
		for i := 0; i < free1; i++ {
			if intersects(m.distinct(m.cols[base1+int32(i)]), b) {
				compat[j] |= 1 << i
			} else {
				m.joins.Skipped++
			}
		}
		if compat[j] != 0 {
			rows++
		}
	}
	if rows < need {
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
	// mapping[j] is the p1 variable matched to p2 variable j+2, or -1. A
	// branch that can no longer match need variables is cut.
	var rec func(j, matched int)
	rec = func(j, matched int) {
		if matched+free2-j < need {
			return
		}
		if j == free2 {
			m.candidate(re1, re2, base2, mapping, decide, take)
			return
		}
		mapping[j] = -1
		rec(j+1, matched)
		for i := 0; i < free1; i++ {
			if used[i] || compat[j]&(1<<i) == 0 {
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

// candidate processes one mapping: renames, semi-joins the instance sets,
// and for a non-empty candidate normalises the merged edge multiset in
// scratch, resolves the canonical key and — if the caller takes it —
// completes the join and materialises.
func (m *Merger) candidate(re1, re2 *Explanation, base2 int32, mapping []VarID, decide func(Key) MergeAction, take func(Key, *Explanation)) {
	p1, p2 := re1.P, re2.P
	// Assign variable IDs in the merged pattern: p1 variables keep their
	// IDs; unmatched p2 variables get fresh IDs (Merge matched enough of
	// them for the total to fit maxVars).
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

	// Existence first: the join stops at the first merged instance, and
	// the (factorial) canonical form is computed only for candidates
	// that have one.
	m.joins.Run++
	j := m.joiner(re1, re2, base2, mapping, rename2, total)
	at := j.run(0, true)
	if at < 0 {
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
	// No instance of re1 before the first match merges with anything, so
	// the full join resumes there.
	m.arena = m.arena[:0]
	j.run(at, false)
	n := len(m.arena) / total
	p := newInterned(schema, total, m.edges, canon, key)
	// Exactly two allocations for the instance set: one flat ID backing
	// array and one header slice.
	backing := make([]kb.NodeID, n*total)
	copy(backing, m.arena)
	insts := make([]Instance, n)
	for i := range insts {
		insts[i] = Instance(backing[i*total : (i+1)*total])
	}
	take(key, &Explanation{P: p, Instances: insts})
}

// joiner is one candidate's instance join: every instance of re1, in
// order, probes re2's column for the matched variable with the most
// distinct bindings (the shortest groups); each instance of the group,
// in order, that agrees on the other matched variables and merges
// injectively is a result. A merged instance carries all of i1 and,
// renamed, all of i2, so it determines the pair that produced it:
// duplicate-free inputs (every builder de-duplicates) give
// duplicate-free output with no check.
type joiner struct {
	m        *Merger
	re1, re2 *Explanation
	rename2  []VarID
	total    int
	key      column // re2's column of the key variable
	key1     VarID  // the re1 variable matched to it
	nm       int    // the other matched pairs: m1[x] in re1, m2[x] in re2
	m1, m2   [MaxVars]VarID
}

func (m *Merger) joiner(re1, re2 *Explanation, base2 int32, mapping []VarID, rename2 []VarID, total int) joiner {
	kx := -1
	for x, v := range mapping {
		if v >= 0 && (kx < 0 || m.cols[base2+int32(x)].nv > m.cols[base2+int32(kx)].nv) {
			kx = x
		}
	}
	j := joiner{m: m, re1: re1, re2: re2, rename2: rename2, total: total,
		key: m.grouped(re2, base2+int32(kx), VarID(kx+2)), key1: mapping[kx]}
	for x, v := range mapping {
		if v >= 0 && x != kx {
			j.m1[j.nm], j.m2[j.nm] = v, VarID(x+2)
			j.nm++
		}
	}
	return j
}

// run joins re1's instances from index from on. With first set it stops
// at the first merged instance and returns the index of the re1 instance
// that produced it, or -1 if there is none; otherwise it appends every
// merged instance to the arena, ordered by re1's instances and, within
// one, by re2's, and returns -1.
func (j *joiner) run(from int, first bool) int {
	m := j.m
	vals := m.distinct(j.key)
	var buf [MaxVars]kb.NodeID
	merged := Instance(buf[:j.total])
	for a := from; a < len(j.re1.Instances); a++ {
		i1 := j.re1.Instances[a]
		k, ok := slices.BinarySearch(vals, i1[j.key1])
		if !ok {
			continue
		}
	next:
		for _, idx := range m.group(j.key, k) {
			i2 := j.re2.Instances[idx]
			for x := 0; x < j.nm; x++ {
				if i1[j.m1[x]] != i2[j.m2[x]] {
					continue next
				}
			}
			copy(merged, i1)
			for v2 := 2; v2 < len(i2); v2++ {
				merged[j.rename2[v2]] = i2[v2]
			}
			if !injective(merged) {
				continue
			}
			if first {
				return a
			}
			m.arena = append(m.arena, merged...)
		}
	}
	return -1
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
