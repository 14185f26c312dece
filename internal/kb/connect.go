package kb

import (
	"context"
	"math/bits"
	"slices"
	"sync"
)

// Simple paths between two entities and their count: REX enumerates the
// simple paths between the targets (Section 3.2), and the paper buckets
// entity pairs by how many there are within a length limit (Section 5.1,
// limit 4). Both are one meet-in-the-middle join, PathJoin. A simple path
// of length l ≤ maxLen splits at its canonical node into a walked part of
// ⌈l/2⌉ steps and a stored part of ⌊l/2⌋, so every path is found once.
// The endpoint with the smaller two-hop frontier (Σ deg over its
// neighbours) is stored: its simple partial paths of length ≤ ⌊maxLen/2⌋
// become breadth-first records, indexed by terminal in an open-addressed
// table sized to them. The other endpoint is walked depth-first to
// ⌈maxLen/2⌉, never through the stored root, and each node it reaches at
// depth d joins the records ending there with length d or d−1 whose
// interior avoids the walked path. Nothing is sized by the graph: a call
// costs about the two endpoints' frontiers.

// PathJoin is the simple-path join's state: the stored records, their
// table and the walked path. The zero value is ready to use. A caller
// that keeps one between calls reuses its buffers; it serves one call at
// a time and holds no graph or context once a call returns.
type PathJoin struct {
	g     *Graph
	ctx   context.Context
	root  NodeID    // the stored endpoint
	first bool      // the stored endpoint is the paths' first node
	recs  []pathRec // the stored partials, in breadth-first order
	// table maps a terminal to 1 + the index of its newest record, by
	// linear probing from a Fibonacci hash; 0 is an empty slot.
	table []int32
	shift uint
	// walked is the walked path: walked[0].To is the walked endpoint and
	// walked[i] the half-edge into its i-th node. It shares an array with
	// steps, the path handed to visit.
	walked []HalfEdge
	steps  []HalfEdge
	depth  int // the walk's length limit, ⌈maxLen/2⌉
	n      int // expansions so far
	err    error
}

// pathRec is one simple path from the stored root: the half-edge into its
// terminal (only To is set at the root), the record one step shorter (-1
// at the root) and the previous record with the same terminal (-1 ends
// the chain).
type pathRec struct {
	in           HalfEdge
	parent, next int32
}

// Paths calls visit once per simple path (no repeated node, edges taken
// either way) of length ≤ maxLen from a to b, with the path's half-edges
// in order from a: steps[i] leads from the path's i-th node to
// steps[i].To. Parallel edges with different labels make distinct paths.
// steps is reused once visit returns, and visit returning false stops
// the join. Paths reports the expansions it made — adjacency scans, one
// per partial path grown on either side — and polls ctx once every 256
// of them, returning ctx's error if it ended.
func (j *PathJoin) Paths(ctx context.Context, g *Graph, a, b NodeID, maxLen int, visit func(steps []HalfEdge) bool) (n int, err error) {
	if a == b || maxLen <= 0 {
		return 0, nil
	}
	stored, walked := a, b
	fs, fw := g.frontier(a), g.frontier(b)
	if fw < fs {
		stored, walked, fs = b, a, fw
	}
	j.g, j.ctx = g, ctx
	j.root, j.first, j.depth, j.n = stored, stored == a, (maxLen+1)/2, 0
	if j.store(walked, maxLen/2, fs) {
		// One array holds both paths: the visited one's maxLen steps,
		// then the walked one's endpoint and ⌈maxLen/2⌉ steps.
		j.steps = slices.Grow(j.steps[:0], maxLen+j.depth+1)
		j.walked = append(j.steps[maxLen:maxLen:maxLen+j.depth+1], HalfEdge{To: walked})
		j.walk(walked, visit)
	}
	n, err = j.n, j.err
	j.g, j.ctx, j.err = nil, nil, nil
	return n, err
}

// Oversized reports whether the join keeps more than limit records (the
// table is sized by them); pools use it to decide between reuse and
// release.
func (j *PathJoin) Oversized(limit int) bool { return cap(j.recs) > limit }

// Connectedness counts the simple paths (no repeated nodes, edges treated
// as undirected) of length ≤ maxLen between start and end. Parallel edges
// with different labels count as distinct paths, matching the
// explanation-instance semantics. The count is capped at cap (pass a
// negative cap for no limit) so that dense pairs do not stall bucketing.
func (g *Graph) Connectedness(start, end NodeID, maxLen int, cap int) int {
	if cap == 0 {
		return 0
	}
	count := 0
	j := countJoins.Get().(*PathJoin)
	j.Paths(context.Background(), g, start, end, maxLen, func([]HalfEdge) bool {
		count++
		return count != cap
	})
	if !j.Oversized(1 << 16) {
		countJoins.Put(j)
	}
	return count
}

// countJoins keeps Connectedness's joins of up to 65 536 records for the
// next call: bucketing counts one sampled pair after another.
var countJoins = sync.Pool{New: func() any { return new(PathJoin) }}

// frontier is the size of a node's two-hop frontier: the half-edges at
// its neighbours, each counted once per half-edge that reaches it.
func (g *Graph) frontier(id NodeID) int {
	n := 0
	for _, he := range g.Neighbors(id) {
		n += g.Degree(he.To)
	}
	return n
}

// expand counts one expansion and polls the context at every 256th; it
// reports false once the context has ended.
func (j *PathJoin) expand() bool {
	if j.n++; j.n%256 == 0 {
		j.err = j.ctx.Err()
	}
	return j.err == nil
}

// store records the simple paths of length ≤ half from the root that do
// not touch far, the walked endpoint, and indexes them by terminal. One
// plus the root's two-hop frontier bounds the records of length ≤ 2: the
// frontier counts each half-edge out of the root once more, back. It
// reports false once the context has ended.
func (j *PathJoin) store(far NodeID, half, frontier int) bool {
	j.recs = append(slices.Grow(j.recs[:0], 1+frontier), pathRec{in: HalfEdge{To: j.root}, parent: -1})
	for lo, d := 0, 1; d <= half; d++ {
		hi := len(j.recs)
		for i := int32(lo); i < int32(hi); i++ {
			if !j.expand() {
				return false
			}
			for _, he := range j.g.Neighbors(j.recs[i].in.To) {
				if he.To != far && !j.holds(i, he.To) {
					j.recs = append(j.recs, pathRec{in: he, parent: i})
				}
			}
		}
		lo = hi
	}
	bitsLen := bits.Len(uint(2*len(j.recs) - 1))
	j.table = slices.Grow(j.table[:0], 1<<bitsLen)[:1<<bitsLen]
	clear(j.table)
	j.shift = uint(32 - bitsLen)
	for i := range j.recs {
		slot := j.slot(j.recs[i].in.To)
		j.recs[i].next = j.table[slot] - 1
		j.table[slot] = int32(i) + 1
	}
	return true
}

// holds reports whether the stored partial i passes through v.
func (j *PathJoin) holds(i int32, v NodeID) bool {
	for ; i >= 0; i = j.recs[i].parent {
		if j.recs[i].in.To == v {
			return true
		}
	}
	return false
}

// slot is the table slot of v: the one holding v's chain, or the empty
// slot where it would start.
func (j *PathJoin) slot(v NodeID) int {
	mask := len(j.table) - 1
	s := int(uint32(v) * 0x9E3779B1 >> j.shift)
	for j.table[s] != 0 && j.recs[j.table[s]-1].in.To != v {
		s = (s + 1) & mask
	}
	return s
}

// length is the number of steps of stored partial r, or -1 when its
// interior (its nodes but the root and the terminal) meets the walked
// path. The root is never on the walked path, and the walked endpoint
// never on a stored partial.
func (j *PathJoin) length(r int32) int {
	b := 0
	for p := j.recs[r].parent; p >= 0; p = j.recs[p].parent {
		if p > 0 && j.onPath(j.recs[p].in.To) {
			return -1
		}
		b++
	}
	return b
}

// walk extends the walked path from its last node u, joining each
// extension with the stored records at its terminal. It reports false
// once the join has stopped.
func (j *PathJoin) walk(u NodeID, visit func([]HalfEdge) bool) bool {
	if !j.expand() {
		return false
	}
	a := len(j.walked) // the length of the paths this step completes
	for _, he := range j.g.Neighbors(u) {
		v := he.To
		// r is the longest stored partial ending at v. At the walk's last
		// level most nodes have none and are passed without a path scan.
		r := j.table[j.slot(v)] - 1
		deeper := v != j.root && a < j.depth
		if r < 0 && !deeper || j.onPath(v) {
			continue
		}
		j.walked = append(j.walked, he)
		if r >= 0 && !j.join(r, a, visit) || deeper && !j.walk(v, visit) {
			return false
		}
		j.walked = j.walked[:a]
	}
	return true
}

// join hands visit each stored partial on the chain from r (those ending
// at the node the walked path reaches in a steps) that has length a or
// a−1 and shares no node with the walked path. It reports false once
// visit did.
func (j *PathJoin) join(r int32, a int, visit func([]HalfEdge) bool) bool {
	for ; r >= 0; r = j.recs[r].next {
		if b := j.length(r); (b == a || b == a-1) && !visit(j.path(r, a, b)) {
			return false
		}
	}
	return true
}

// onPath reports whether v is on the walked path.
func (j *PathJoin) onPath(v NodeID) bool {
	for i := range j.walked {
		if j.walked[i].To == v {
			return true
		}
	}
	return false
}

// path spells into j.steps the path of the walked path's a steps and
// stored partial r's b steps, oriented from the paths' first node:
// whichever side ends the path is read backwards, each of its half-edges
// seen from the other end.
func (j *PathJoin) path(r int32, a, b int) []HalfEdge {
	steps := j.steps[:a+b]
	if j.first {
		for i := b - 1; i >= 0; i-- {
			steps[i] = j.recs[r].in
			r = j.recs[r].parent
		}
		for i := 0; i < a; i++ {
			he := j.walked[a-i]
			steps[b+i] = HalfEdge{To: j.walked[a-i-1].To, Label: he.Label, Dir: he.Dir.Reverse()}
		}
		return steps
	}
	copy(steps, j.walked[1:])
	for i := a; i < a+b; i++ {
		he := j.recs[r].in
		r = j.recs[r].parent
		steps[i] = HalfEdge{To: j.recs[r].in.To, Label: he.Label, Dir: he.Dir.Reverse()}
	}
	return steps
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
