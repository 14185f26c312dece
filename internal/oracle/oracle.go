// Package oracle holds the paper's strawman algorithms (Sections 3.2 and
// 3.3), the baselines Figure 7 times the served pipeline against and the
// reference answers the differential tests compare it with:
//
//   - NaiveEnum: the gSpan-style graph-expansion baseline (Algorithm 1),
//     which generates non-minimal intermediates and filters.
//   - PathEnumNaive: every length-limited simple path from the start,
//     kept when it ends at the end.
//   - PathEnumBasic: the bidirectional BANKS strategy, partial paths
//     grown from both targets (Partials) and joined at a meeting node.
//   - PathUnionBasic: Algorithm 3, every explanation of a ring merged
//     with every path explanation.
//
// The package imports only kb and pattern. It shares no code with the
// served enumerator (internal/enumerate): it groups paths into
// explanations on its own (Group), so a fault in the served grouping,
// joining or pooling cannot hide behind the same fault here. Nothing in
// it is pooled, traced or cancellable; it is meant for small graphs.
package oracle

import (
	"slices"
	"strings"

	"rex/internal/kb"
	"rex/internal/pattern"
)

// Path is one simple path of the knowledge base: Steps[i] leads from
// Nodes[i] to Nodes[i+1], so len(Nodes) == len(Steps)+1.
type Path struct {
	Nodes []kb.NodeID
	Steps []kb.HalfEdge
}

// Len is the number of edges on the path.
func (p Path) Len() int { return len(p.Steps) }

// Last is the path's terminal node.
func (p Path) Last() kb.NodeID { return p.Nodes[len(p.Nodes)-1] }

func (p Path) contains(id kb.NodeID) bool { return slices.Contains(p.Nodes, id) }

// extend returns a new path: p grown by one half-edge. p is not changed.
func (p Path) extend(he kb.HalfEdge) Path {
	return Path{
		Nodes: append(slices.Clip(p.Nodes), he.To),
		Steps: append(slices.Clip(p.Steps), he),
	}
}

// Group turns start→end paths into path explanations: one per pattern,
// found by pattern.FromPathInstance and keyed by the pattern's canonical
// Key, holding the de-duplicated instances of every path with that
// pattern. The result is sorted like the served pipeline's.
func Group(g *kb.Graph, paths []Path) []*pattern.Explanation {
	byKey := make(map[pattern.Key]*pattern.Explanation)
	var out []*pattern.Explanation
	for _, p := range paths {
		pat, in, err := pattern.FromPathInstance(g, p.Nodes, p.Steps)
		if err != nil {
			panic(err) // a Path always has one more node than steps
		}
		ex, ok := byKey[pat.Key()]
		if !ok {
			ex = &pattern.Explanation{P: pat}
			byKey[pat.Key()] = ex
			out = append(out, ex)
		}
		ex.Instances = append(ex.Instances, in)
	}
	sortExplanations(out)
	return out
}

// sortExplanations de-duplicates and sorts each instance list, then
// orders the explanations by pattern (byPattern).
func sortExplanations(es []*pattern.Explanation) {
	for _, ex := range es {
		ex.Instances = pattern.NewExplanation(ex.P, ex.Instances).Instances
		slices.SortFunc(ex.Instances, func(a, b pattern.Instance) int { return a.Key().Compare(b.Key()) })
	}
	slices.SortFunc(es, byPattern)
}

// byPattern orders explanations by (pattern size, edge count, canonical
// key), as the served pipeline does.
func byPattern(a, b *pattern.Explanation) int {
	if d := a.P.NumVars() - b.P.NumVars(); d != 0 {
		return d
	}
	if d := a.P.NumEdges() - b.P.NumEdges(); d != 0 {
		return d
	}
	return strings.Compare(a.P.CanonicalKey(), b.P.CanonicalKey())
}

// PathUnionBasic is Algorithm 3: ring 0 is the path explanations, and
// ring k+1 holds every new pattern that merging an explanation of ring k
// with a path explanation yields, until a ring adds nothing. A pattern
// is kept at its first sighting, so each minimal pattern surfaces once.
// The result is ordered by pattern; no explanation is modified.
func PathUnionBasic(qpath []*pattern.Explanation, maxVars int) []*pattern.Explanation {
	m := pattern.AcquireMerger()
	defer pattern.ReleaseMerger(m)
	seen := make(map[pattern.Key]bool, len(qpath))
	for _, re := range qpath {
		seen[re.P.Key()] = true
	}
	decide := func(k pattern.Key) pattern.MergeAction {
		if seen[k] {
			return pattern.MergeSkip
		}
		return pattern.MergeTake
	}
	out := slices.Clone(qpath)
	for ring := qpath; len(ring) > 0; {
		var next []*pattern.Explanation
		take := func(k pattern.Key, re *pattern.Explanation) {
			seen[k] = true
			next = append(next, re)
		}
		for _, re1 := range ring {
			for _, re2 := range qpath {
				m.Merge(re1, re2, maxVars, decide, take)
			}
		}
		out = append(out, next...)
		ring = next
	}
	slices.SortFunc(out, byPattern)
	return out
}
