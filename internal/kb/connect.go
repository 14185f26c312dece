package kb

import "math/bits"

// Connectedness metrics. The paper buckets entity pairs by their
// "connectedness": the number of simple paths between the two entities
// within a length limit (Section 5.1, limit 4). Connectedness drives the
// cost of explanation enumeration, so the experiment harness uses it to
// build low / medium / high workloads.
//
// The count meets in the middle, as the served path search does
// (Section 3.2). A simple path of length l ≤ maxLen splits at its
// canonical node into a walked prefix of ⌈l/2⌉ steps and a stored suffix
// of ⌊l/2⌋ steps, so every path is counted exactly once. Because the
// count is symmetric in its endpoints, the endpoint whose two-hop
// frontier (Σ deg over its neighbours, O(deg) to compute) is smaller
// becomes the stored side: its simple partial paths of length
// ≤ ⌊maxLen/2⌋ are kept as (node, parent) records in breadth-first order
// and indexed by terminal in an open-addressed table sized to them. The
// other endpoint is then walked depth-first to ⌈maxLen/2⌉, never through
// the stored root, and each node it reaches at depth a joins the stored
// records ending there with length a or a−1 whose interior avoids the
// walked path — at most ⌊maxLen/2⌋ parents to check. Nothing is sized by
// the graph: a call costs about the two endpoints' frontiers, where a
// one-sided walk cost every path of length maxLen−1 from the start.

// Connectedness counts the simple paths (no repeated nodes, edges treated
// as undirected) of length ≤ maxLen between start and end. Parallel edges
// with different labels count as distinct paths, matching the
// explanation-instance semantics. The count is capped at cap (pass a
// negative cap for no limit) so that dense pairs do not stall bucketing.
func (g *Graph) Connectedness(start, end NodeID, maxLen int, cap int) int {
	if start == end || maxLen <= 0 || cap == 0 {
		return 0
	}
	fs, fe := g.frontier(start), g.frontier(end)
	if fe < fs {
		start, end, fs = end, start, fe
	}
	m := meet{g: g, root: start, cap: cap, depth: (maxLen + 1) / 2}
	m.store(end, maxLen/2, fs)
	m.path = append(make([]NodeID, 0, m.depth+1), end)
	m.walk(end)
	return m.count
}

// frontier is the size of a node's two-hop frontier: the half-edges at
// its neighbours, each counted once per half-edge that reaches it.
func (g *Graph) frontier(id NodeID) int {
	n := 0
	for _, he := range g.Neighbors(id) {
		n += g.Degree(he.To)
	}
	return n
}

// partial is one simple path from the stored root: its terminal node,
// the record one step shorter (-1 at the root) and the previous record
// with the same terminal (-1 ends the chain).
type partial struct {
	node         NodeID
	parent, next int32
}

// meet is one Connectedness call's state.
type meet struct {
	g    *Graph
	root NodeID // the stored endpoint
	// recs holds the stored partials in breadth-first order; the ones of
	// length d are recs[levels[d-1]:levels[d]] (levels[-1] being 0).
	recs   []partial
	levels []int32
	// table maps a terminal to 1 + the index of its newest record, by
	// linear probing from a Fibonacci hash; 0 is an empty slot.
	table []int32
	shift uint
	path  []NodeID // the walked path, its endpoint first
	depth int      // the walk's length limit, ⌈maxLen/2⌉
	count int
	cap   int
}

// store records the simple paths of length ≤ half from the root that do
// not touch far, the walked endpoint, and indexes them by terminal. The
// root's two-hop frontier bounds the records of length 2.
func (m *meet) store(far NodeID, half, frontier int) {
	size := 1
	if half >= 1 {
		size += m.g.Degree(m.root)
	}
	if half >= 2 {
		size += frontier
	}
	m.recs = append(make([]partial, 0, size), partial{node: m.root, parent: -1})
	m.levels = append(make([]int32, 0, half+1), 1)
	lo := int32(0)
	for d := 1; d <= half; d++ {
		hi := m.levels[d-1]
		for i := lo; i < hi; i++ {
			for _, he := range m.g.Neighbors(m.recs[i].node) {
				if he.To != far && !m.holds(i, he.To) {
					m.recs = append(m.recs, partial{node: he.To, parent: i})
				}
			}
		}
		lo = hi
		m.levels = append(m.levels, int32(len(m.recs)))
	}
	bitsLen := bits.Len(uint(2*len(m.recs) - 1))
	m.table = make([]int32, 1<<bitsLen)
	m.shift = uint(32 - bitsLen)
	for i := range m.recs {
		slot := m.slot(m.recs[i].node)
		m.recs[i].next = m.table[slot] - 1
		m.table[slot] = int32(i) + 1
	}
}

// holds reports whether the stored partial i passes through v.
func (m *meet) holds(i int32, v NodeID) bool {
	for ; i >= 0; i = m.recs[i].parent {
		if m.recs[i].node == v {
			return true
		}
	}
	return false
}

// slot is the table slot of v: the one holding v's chain, or the empty
// slot where it would start.
func (m *meet) slot(v NodeID) int {
	mask := len(m.table) - 1
	s := int(uint32(v) * 0x9E3779B1 >> m.shift)
	for m.table[s] != 0 && m.recs[m.table[s]-1].node != v {
		s = (s + 1) & mask
	}
	return s
}

// length is the number of steps of stored partial i.
func (m *meet) length(i int32) int {
	d := 0
	for i >= m.levels[d] {
		d++
	}
	return d
}

// walk extends the walked path from its last node, counting each simple
// path it completes through the stored records. It reports false once
// the count reached cap.
func (m *meet) walk(u NodeID) bool {
	a := len(m.path) // the length of the paths this step completes
	for _, he := range m.g.Neighbors(u) {
		v := he.To
		// r is the longest stored partial ending at v. At the walk's last
		// level most nodes have none and are passed without a path scan.
		r := m.table[m.slot(v)] - 1
		deeper := v != m.root && a < m.depth
		if r < 0 && !deeper || m.onPath(v) {
			continue
		}
		if !m.join(r, a) {
			return false
		}
		if deeper {
			m.path = append(m.path, v)
			capped := !m.walk(v)
			m.path = m.path[:a]
			if capped {
				return false
			}
		}
	}
	return true
}

// join counts the stored partials on the chain from r (those ending at
// the node the walked path reaches in a steps) that have length a or a−1
// and share no node with the walked path. It reports false once the
// count reached cap (a negative cap is never reached).
func (m *meet) join(r int32, a int) bool {
	for ; r >= 0; r = m.recs[r].next {
		b := m.length(r)
		if b > a {
			continue
		}
		if b < a-1 {
			break // the chain runs from the longest partials down
		}
		if m.disjoint(r) {
			if m.count++; m.count == m.cap {
				return false
			}
		}
	}
	return true
}

// disjoint reports whether the interior of stored partial r — its nodes
// other than the root and the terminal — avoids the walked path. The
// root is never on the walked path, and the walked endpoint never on a
// stored partial.
func (m *meet) disjoint(r int32) bool {
	for p := m.recs[r].parent; p > 0; p = m.recs[p].parent {
		if m.onPath(m.recs[p].node) {
			return false
		}
	}
	return true
}

// onPath reports whether v is on the walked path.
func (m *meet) onPath(v NodeID) bool {
	for _, u := range m.path {
		if u == v {
			return true
		}
	}
	return false
}

// ConnBucket names a connectedness workload group from the paper.
type ConnBucket int

// Connectedness buckets with the paper's thresholds (Section 5.1):
// low 0–30, medium 30–100, high > 100 simple paths of length ≤ 4.
const (
	ConnLow ConnBucket = iota
	ConnMedium
	ConnHigh
)

// String returns the bucket name used in figures.
func (b ConnBucket) String() string {
	switch b {
	case ConnLow:
		return "low"
	case ConnMedium:
		return "medium"
	case ConnHigh:
		return "high"
	}
	return "unknown"
}

// Bucket classifies a connectedness count with the paper's thresholds.
func Bucket(connectedness int) ConnBucket {
	switch {
	case connectedness <= 30:
		return ConnLow
	case connectedness <= 100:
		return ConnMedium
	default:
		return ConnHigh
	}
}
