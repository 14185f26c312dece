package oracle

import "rex/internal/kb"

// PathEnumNaive is the strawman PathEnumNaive of Section 5.2: a
// depth-first search lists every simple path of length ≤ maxLen from
// start, whatever the end entity, and keeps the ones that end at end.
func PathEnumNaive(g *kb.Graph, start, end kb.NodeID, maxLen int) []Path {
	if maxLen <= 0 || start == end {
		return nil
	}
	var out []Path
	var dfs func(cur Path)
	dfs = func(cur Path) {
		for _, he := range g.Neighbors(cur.Last()) {
			switch {
			case he.To == end:
				out = append(out, cur.extend(he))
			case cur.Len()+1 < maxLen && !cur.contains(he.To):
				dfs(cur.extend(he))
			}
		}
	}
	dfs(Path{Nodes: []kb.NodeID{start}})
	return out
}

// PathEnumBasic is the bidirectional enumeration adapted from BANKS
// (Section 3.2): the partial paths of length ≤ ⌈maxLen/2⌉ from start and
// ≤ ⌊maxLen/2⌋ from end that end at a common node join into full paths.
// A path joins only at its canonical split (forward length ⌈l/2⌉), so
// each one is listed once.
func PathEnumBasic(g *kb.Graph, start, end kb.NodeID, maxLen int) []Path {
	if maxLen <= 0 || start == end {
		return nil
	}
	byMeet := make(map[kb.NodeID][]Path)
	for _, b := range Partials(g, end, start, maxLen/2, true) {
		byMeet[b.Last()] = append(byMeet[b.Last()], b)
	}
	var out []Path
	for _, f := range Partials(g, start, end, (maxLen+1)/2, false) {
		for _, b := range byMeet[f.Last()] {
			if a, c := f.Len(), b.Len(); a+c == 0 || a != c && a != c+1 {
				continue
			}
			if p, ok := join(f, b); ok {
				out = append(out, p)
			}
		}
	}
	return out
}

// Partials lists, breadth-first, the simple paths of length ≤ maxLen
// from origin, the one-node path included: BANKS's partial paths of one
// side. other is the opposite target. The forward side (backward false)
// lists paths that reach other but never grows them past it; the
// backward side never touches other, because a path's suffix never
// holds its start.
func Partials(g *kb.Graph, origin, other kb.NodeID, maxLen int, backward bool) []Path {
	out := []Path{{Nodes: []kb.NodeID{origin}}}
	for i := 0; i < len(out); i++ {
		p := out[i]
		if p.Len() >= maxLen || p.Last() == other {
			continue
		}
		for _, he := range g.Neighbors(p.Last()) {
			if p.contains(he.To) || backward && he.To == other {
				continue
			}
			out = append(out, p.extend(he))
		}
	}
	return out
}

// join stitches a forward partial path and a backward one that end at
// the same node into one start→end path, or reports false when the two
// share any other node. The backward steps are walked in reverse, each
// seen from its other end.
func join(fwd, bwd Path) (Path, bool) {
	for _, id := range bwd.Nodes[:len(bwd.Nodes)-1] {
		if fwd.contains(id) {
			return Path{}, false
		}
	}
	p := Path{
		Nodes: append([]kb.NodeID(nil), fwd.Nodes...),
		Steps: append([]kb.HalfEdge(nil), fwd.Steps...),
	}
	for i := len(bwd.Steps) - 1; i >= 0; i-- {
		he := bwd.Steps[i]
		p.Nodes = append(p.Nodes, bwd.Nodes[i])
		p.Steps = append(p.Steps, kb.HalfEdge{To: bwd.Nodes[i], Label: he.Label, Dir: he.Dir.Reverse()})
	}
	return p, true
}
