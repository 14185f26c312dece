package pattern

// Structural properties of explanation patterns (Section 2.3 of the
// paper): essentiality, decomposability, and their conjunction,
// minimality. REX only enumerates minimal patterns; these predicates are
// used by the oracle.NaiveEnum baseline (which must filter) and by tests that
// verify the path-union framework generates exactly the minimal set.

// Essential reports whether every node and edge of the pattern lies on a
// simple path (edges treated as undirected, no repeated nodes) between
// the start and end targets (Definition 3).
func (p *Pattern) Essential() bool {
	if p.n == 2 {
		// Only the targets: essential iff every edge connects them, which
		// the constructor guarantees (all edges are between vars 0 and 1).
		return len(p.edges) > 0
	}
	nodeOn := make([]bool, p.n)
	edgeOn := make([]bool, len(p.edges))
	p.walkSimplePaths(func(nodes []VarID, edges []int) bool {
		for _, v := range nodes {
			nodeOn[v] = true
		}
		for _, e := range edges {
			edgeOn[e] = true
		}
		return true // keep enumerating
	})
	for v := 0; v < p.n; v++ {
		if !nodeOn[v] {
			return false
		}
	}
	for i := range p.edges {
		if !edgeOn[i] {
			return false
		}
	}
	return true
}

// walkSimplePaths enumerates every simple start→end path in the pattern
// graph (ignoring edge direction). For each path it invokes f with the
// node sequence and the indexes of the traversed edges; if f returns
// false enumeration stops early.
func (p *Pattern) walkSimplePaths(f func(nodes []VarID, edges []int) bool) {
	type halfEdge struct {
		to   VarID
		edge int
	}
	adj := make([][]halfEdge, p.n)
	for i, e := range p.edges {
		adj[e.U] = append(adj[e.U], halfEdge{to: e.V, edge: i})
		adj[e.V] = append(adj[e.V], halfEdge{to: e.U, edge: i})
	}
	onPath := make([]bool, p.n)
	nodes := []VarID{Start}
	var edges []int
	onPath[Start] = true
	stop := false
	var dfs func(at VarID)
	dfs = func(at VarID) {
		if stop {
			return
		}
		for _, he := range adj[at] {
			if stop {
				return
			}
			if he.to == End {
				nodes = append(nodes, End)
				edges = append(edges, he.edge)
				if !f(nodes, edges) {
					stop = true
				}
				nodes = nodes[:len(nodes)-1]
				edges = edges[:len(edges)-1]
				continue
			}
			if onPath[he.to] {
				continue
			}
			onPath[he.to] = true
			nodes = append(nodes, he.to)
			edges = append(edges, he.edge)
			dfs(he.to)
			nodes = nodes[:len(nodes)-1]
			edges = edges[:len(edges)-1]
			onPath[he.to] = false
		}
	}
	dfs(Start)
}

// Decomposable reports whether the edge set can be partitioned into two
// non-empty parts that share no non-target variable (Definition 4). An
// explanation that decomposes is semantically redundant: its instances
// are exactly the cross product of its parts' instances.
//
// The check is linear: build the graph whose vertices are the pattern's
// edges, connecting two edges when they share a non-target variable. The
// pattern is decomposable iff that graph has more than one connected
// component.
func (p *Pattern) Decomposable() bool {
	m := len(p.edges)
	if m <= 1 {
		return false
	}
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	// firstEdge[v] remembers one edge incident to the non-target variable
	// v; every later incident edge unions with it.
	firstEdge := make([]int, p.n)
	for i := range firstEdge {
		firstEdge[i] = -1
	}
	for i, e := range p.edges {
		for _, v := range [2]VarID{e.U, e.V} {
			if v == Start || v == End {
				continue
			}
			if firstEdge[v] == -1 {
				firstEdge[v] = i
			} else {
				union(firstEdge[v], i)
			}
		}
	}
	root := find(0)
	for i := 1; i < m; i++ {
		if find(i) != root {
			return true
		}
	}
	return false
}

// Minimal reports whether the pattern is essential and non-decomposable
// (Section 2.3). Only minimal patterns are returned by REX.
func (p *Pattern) Minimal() bool {
	return p.Essential() && !p.Decomposable()
}
