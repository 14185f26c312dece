package pattern

import (
	"bytes"
	"slices"
	"strconv"
	"sync"
)

// Canonicalisation and isomorphism.
//
// The paper's duplication check (Algorithm 3, lines 16–23) discards a
// newly generated explanation whenever its pattern is isomorphic to an
// already-kept pattern, where isomorphism must respect the two target
// variables (start maps to start, end to end). Patterns are bounded by
// the size limit (5 in the paper's experiments), so exact isomorphism is
// affordable: we canonicalise by trying every permutation of the
// non-target variables and keeping the lexicographically smallest edge
// encoding. Two patterns are isomorphic iff their canonical keys are
// equal, which turns the queue scan of the pseudocode into a hash-map
// lookup — and, via the interned 64-bit Key, a cheap integer-keyed one.
//
// The permutation search reuses two byte buffers and one edge scratch
// slice for the whole run, so computing a canonical form performs a
// constant number of allocations regardless of pattern size; the result
// is cached on the pattern, making every later access free.

// CanonicalKey returns a string that is identical for exactly the
// patterns isomorphic to p (with targets pinned). The key is cached on
// first use; computing it is O((n-2)! · |E|), trivial for the pattern
// sizes REX enumerates. Hot paths should prefer Key, the interned 64-bit
// form; the string form remains the deterministic sort key for output
// ordering.
//
// The string itself comes from the process-wide intern table, so the
// steady state — recomputing the canonical form of a pattern shape seen
// before — allocates nothing: the factorial search runs in pooled
// buffers and the interned string is shared.
func (p *Pattern) CanonicalKey() string {
	if !p.hasKey {
		cs := canonPool.Get().(*canonScratch)
		enc := canonEncode(cs, p.schema, p.n, p.edges, nil)
		p.key, p.canon = internKeyBytes(enc)
		p.hasKey = true
		canonPool.Put(cs)
	}
	return p.canon
}

// canonScratch holds the reusable buffers of the factorial canonical
// search: the renamed-edge scratch, the permutation and best-permutation
// arrays, and the two encoding buffers (current candidate and
// best-so-far, swapped on improvement) — so one canonical-form
// computation performs no allocations once the buffers are warm.
type canonScratch struct {
	scratch    []Edge
	perm       []VarID
	best, cand []byte
}

var canonPool = sync.Pool{New: func() any { return &canonScratch{} }}

// canonEncode computes the canonical encoding of the pattern (n, edges)
// into cs's buffers and returns it; the result is valid until cs is
// reused. When bestPerm is non-nil it receives a permutation achieving
// the canonical form (len n-2). edges must be in the New normal form
// (undirected U ≤ V, sorted, deduped).
func canonEncode(cs *canonScratch, schema Schema, n int, edges []Edge, bestPerm []VarID) []byte {
	if cap(cs.scratch) < len(edges) {
		cs.scratch = make([]Edge, len(edges))
	}
	scratch := cs.scratch[:len(edges)]
	free := n - 2 // variables 2..n-1 may be permuted
	if free <= 0 {
		cs.best = appendEncoding(cs.best[:0], schema, n, edges, nil, scratch)
		return cs.best
	}
	if cap(cs.perm) < free {
		cs.perm = make([]VarID, free)
	}
	perm := cs.perm[:free] // perm[i] = image of variable i+2
	for i := range perm {
		perm[i] = VarID(i + 2)
	}
	haveBest := false
	best, cand := cs.best[:0], cs.cand[:0]
	permute(perm, 0, func() {
		cand = appendEncoding(cand[:0], schema, n, edges, perm, scratch)
		if !haveBest || bytes.Compare(cand, best) < 0 {
			haveBest = true
			best, cand = cand, best
			if bestPerm != nil {
				copy(bestPerm, perm)
			}
		}
	})
	cs.best, cs.cand = best, cand
	return best
}

// CanonicalPerm returns a full variable renaming into the canonical
// numbering: result[v] is the canonical name of variable v (targets map
// to themselves). Two isomorphic patterns renamed by their respective
// CanonicalPerms have identical edge lists, and their instance sets —
// remapped the same way — become directly comparable (equal up to
// automorphisms of the canonical pattern, which permute the instance set
// onto itself).
func (p *Pattern) CanonicalPerm() []VarID {
	out := make([]VarID, p.n)
	out[Start], out[End] = Start, End
	for i := 2; i < p.n; i++ {
		out[i] = VarID(i)
	}
	if p.n > 2 {
		cs := canonPool.Get().(*canonScratch)
		canonEncode(cs, p.schema, p.n, p.edges, out[2:])
		canonPool.Put(cs)
	}
	return out
}

// CanonicalInstanceKeys remaps every instance into the canonical variable
// numbering and returns the sorted key list. Two explanations with
// isomorphic patterns have equal canonical instance keys iff their
// instance sets are equal.
func (e *Explanation) CanonicalInstanceKeys() []InstanceKey {
	perm := e.P.CanonicalPerm()
	keys := make([]InstanceKey, len(e.Instances))
	remapped := make(Instance, len(perm))
	for i, in := range e.Instances {
		for v, id := range in {
			remapped[perm[v]] = id
		}
		keys[i] = remapped.Key()
	}
	slices.SortFunc(keys, InstanceKey.Compare)
	return keys
}

// permute generates all permutations of perm[k:] in place, invoking f for
// each complete permutation.
func permute(perm []VarID, k int, f func()) {
	if k == len(perm) {
		f()
		return
	}
	for i := k; i < len(perm); i++ {
		perm[k], perm[i] = perm[i], perm[k]
		permute(perm, k+1, f)
		perm[k], perm[i] = perm[i], perm[k]
	}
}

// appendEncoding renders the edge multiset under a relabeling of the free
// variables into dst, reusing scratch for the renamed edges. perm[i] is
// the new name of variable i+2; a nil perm is the identity. Directed
// edges keep their orientation; undirected edges are re-normalised to
// U ≤ V after renaming so that equal patterns encode equally. The format
// ("n|u,v,label;...") is the legacy string encoding — output ordering
// depends on comparisons of these strings, so it must not change.
func appendEncoding(dst []byte, schema Schema, n int, edges []Edge, perm []VarID, scratch []Edge) []byte {
	for i, e := range edges {
		u, v := renameVar(e.U, perm), renameVar(e.V, perm)
		if !schema.LabelDirected(e.Label) && u > v {
			u, v = v, u
		}
		scratch[i] = Edge{U: u, V: v, Label: e.Label}
	}
	insertionSortEdges(scratch)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, '|')
	for _, e := range scratch {
		dst = strconv.AppendInt(dst, int64(e.U), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.V), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.Label), 10)
		dst = append(dst, ';')
	}
	return dst
}

func renameVar(v VarID, perm []VarID) VarID {
	if v < 2 || perm == nil {
		return v
	}
	return perm[v-2]
}

// insertionSortEdges sorts in place by edgeLess — the same order as
// sortEdges, which shares the comparator — without the sort.Slice
// closure allocation; edge lists are tiny, so insertion sort also wins
// on constants.
func insertionSortEdges(es []Edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && edgeLess(es[j], es[j-1]); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// edgeLess is the canonical (U, V, Label) edge order used by both the
// normal form (sortEdges) and the canonical encoding.
func edgeLess(a, b Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	if a.V != b.V {
		return a.V < b.V
	}
	return a.Label < b.Label
}

// Isomorphic reports whether p and q are isomorphic with targets pinned.
func (p *Pattern) Isomorphic(q *Pattern) bool {
	if p.n != q.n || len(p.edges) != len(q.edges) {
		return false
	}
	return p.Key() == q.Key()
}
