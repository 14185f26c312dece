package oracle

import (
	"slices"

	"rex/internal/kb"
	"rex/internal/pattern"
)

// NaiveEnum is the baseline of Algorithm 1: enumerate graph patterns by
// gSpan-style expansion (add one edge at a time, between existing
// variables or to a fresh variable), prune patterns that are duplicated
// or have no instance, and report the minimal ones. Unlike the path-union
// framework it generates — and must carry — non-minimal intermediate
// patterns, because a non-minimal pattern can expand into a minimal one.
//
// Instances propagate incrementally, as the paper notes ("can be computed
// efficiently from Qp[i]'s instances and G"): adding an edge between
// existing variables filters the parent's instances; adding an edge to a
// new variable extends them through the adjacency lists.
//
// The seed is the two target variables with no edges (a single trivially
// satisfied instance), which is equivalent to the paper's single-start-
// node seed given that every instance pins both targets anyway. maxVars
// bounds the pattern size in nodes.
func NaiveEnum(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation {
	seedP := pattern.MustNew(g, 2, nil)
	seed := &pattern.Explanation{
		P:         seedP,
		Instances: []pattern.Instance{{start, end}},
	}
	queue := []*pattern.Explanation{seed}
	seen := map[pattern.Key]struct{}{seedP.Key(): {}}
	var result []*pattern.Explanation

	for i := 0; i < len(queue); i++ {
		for _, cand := range expandNaive(g, queue[i], start, end, maxVars) {
			key := cand.P.Key()
			if _, dup := seen[key]; dup {
				continue
			}
			if len(cand.Instances) == 0 {
				continue
			}
			seen[key] = struct{}{}
			queue = append(queue, cand)
			if cand.P.Minimal() {
				result = append(result, cand)
			}
		}
	}
	sortExplanations(result)
	return result
}

// expandNaive generates the one-edge expansions of an explanation:
//
//	(a) a new edge between two existing variables, for every label and
//	    (directed) orientation, keeping instances that satisfy it;
//	(b) a new edge from an existing variable to a fresh variable,
//	    data-driven from the adjacency of the variable's bindings.
func expandNaive(g *kb.Graph, re *pattern.Explanation, start, end kb.NodeID, maxVars int) []*pattern.Explanation {
	var out []*pattern.Explanation
	p := re.P
	n := p.NumVars()

	// (a) Close an edge between existing variables. Candidate labels are
	// probed from the data: for each instance and variable pair, the
	// edges actually present between the bound entities.
	type closeKey struct {
		u, v  pattern.VarID
		label kb.LabelID
	}
	closeCands := make(map[closeKey]struct{})
	for _, in := range re.Instances {
		for u := 0; u < n; u++ {
			for _, he := range g.Neighbors(in[u]) {
				for v := 0; v < n; v++ {
					if u == v || in[v] != he.To {
						continue
					}
					var k closeKey
					switch he.Dir {
					case kb.Out:
						k = closeKey{pattern.VarID(u), pattern.VarID(v), he.Label}
					case kb.In:
						k = closeKey{pattern.VarID(v), pattern.VarID(u), he.Label}
					default:
						a, b := pattern.VarID(u), pattern.VarID(v)
						if a > b {
							a, b = b, a
						}
						k = closeKey{a, b, he.Label}
					}
					closeCands[k] = struct{}{}
				}
			}
		}
	}
	for k := range closeCands {
		newEdge := pattern.Edge{U: k.u, V: k.v, Label: k.label}
		if hasEdge(p, newEdge) {
			continue
		}
		np, err := pattern.New(g, n, append(append([]pattern.Edge{}, p.Edges()...), newEdge))
		if err != nil {
			continue
		}
		var insts []pattern.Instance
		for _, in := range re.Instances {
			if g.HasEdge(in[k.u], in[k.v], k.label) {
				insts = append(insts, in)
			}
		}
		if len(insts) > 0 {
			out = append(out, pattern.NewExplanation(np, insts))
		}
	}

	// (b) Grow a fresh variable off an existing one, data-driven.
	if n < maxVars {
		type growKey struct {
			u       pattern.VarID
			label   kb.LabelID
			outward bool // pattern edge u→new (for directed labels)
		}
		growCands := make(map[growKey]struct{})
		for _, in := range re.Instances {
			for u := 0; u < n; u++ {
				for _, he := range g.Neighbors(in[u]) {
					if he.To == start || he.To == end {
						continue
					}
					growCands[growKey{pattern.VarID(u), he.Label, he.Dir == kb.Out || he.Dir == kb.Undirected}] = struct{}{}
				}
			}
		}
		for k := range growCands {
			newVar := pattern.VarID(n)
			var newEdge pattern.Edge
			if k.outward {
				newEdge = pattern.Edge{U: k.u, V: newVar, Label: k.label}
			} else {
				newEdge = pattern.Edge{U: newVar, V: k.u, Label: k.label}
			}
			np, err := pattern.New(g, n+1, append(append([]pattern.Edge{}, p.Edges()...), newEdge))
			if err != nil {
				continue
			}
			wantDir := kb.Undirected
			if g.LabelDirected(k.label) {
				if k.outward {
					wantDir = kb.Out
				} else {
					wantDir = kb.In
				}
			}
			var insts []pattern.Instance
			for _, in := range re.Instances {
			nextHalfEdge:
				for _, he := range g.Neighbors(in[k.u]) {
					if he.Label != k.label || he.Dir != wantDir {
						continue
					}
					// Injective embedding: the fresh variable must bind
					// an entity no other variable (targets included)
					// already binds.
					for _, bound := range in {
						if he.To == bound {
							continue nextHalfEdge
						}
					}
					ext := make(pattern.Instance, n+1)
					copy(ext, in)
					ext[newVar] = he.To
					insts = append(insts, ext)
				}
			}
			if len(insts) > 0 {
				out = append(out, pattern.NewExplanation(np, insts))
			}
		}
	}
	return out
}

// hasEdge reports whether the pattern already contains an equivalent edge
// (same endpoints and label, orientation-insensitive for undirected
// labels — New normalises those to U ≤ V, and e is pre-normalised by the
// candidate construction).
func hasEdge(p *pattern.Pattern, e pattern.Edge) bool {
	return slices.Contains(p.Edges(), e)
}
