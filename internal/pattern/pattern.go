// Package pattern implements relationship-explanation patterns and
// instances (Definitions 1 and 2 of the REX paper) together with the
// structural machinery the enumeration algorithms need: canonical forms,
// isomorphism checks, essentiality and decomposability tests, and the
// ∪f pattern-merge operator of Algorithm 3.
//
// A pattern is a small graph whose nodes are variables. Two variables are
// special: Start (always variable 0) and End (always variable 1); they
// are pinned to the queried entity pair. Edges carry knowledge-base
// relationship labels; whether an edge is directed follows from its
// label. An instance of a pattern is an assignment of knowledge-base
// entities to the pattern's variables that satisfies every edge
// constraint.
package pattern

import (
	"fmt"
	"strings"

	"rex/internal/kb"
)

// VarID indexes a variable within a pattern. Variables are dense;
// 0 is always the start target and 1 the end target.
type VarID int8

// Reserved variable positions.
const (
	Start VarID = 0
	End   VarID = 1
)

// Schema exposes the label metadata patterns need from a knowledge base.
// *kb.Graph satisfies Schema.
type Schema interface {
	LabelName(kb.LabelID) string
	LabelDirected(kb.LabelID) bool
}

// Edge is a labeled pattern edge between two variables. For directed
// labels the edge is oriented U→V; for undirected labels U ≤ V is
// maintained as a normal form.
type Edge struct {
	U, V  VarID
	Label kb.LabelID
}

// Pattern is a relationship-explanation pattern: N variables (including
// the two targets) and a set of labeled edges. Patterns are immutable
// after construction; all mutating helpers return new patterns.
type Pattern struct {
	n      int
	edges  []Edge
	schema Schema

	canon  string // lazily computed canonical encoding
	key    Key    // lazily interned 64-bit canonical key
	hasKey bool

	steps     []PathStep // lazily computed start→end walk (path patterns)
	stepsOK   bool
	stepsDone bool
}

// New constructs a pattern with n variables (n ≥ 2) and the given edges.
// Edges are normalised (undirected labels get U ≤ V), sorted, and
// de-duplicated, per the merge semantics of the paper ("if there are
// multiple edges with same label between a pair of nodes ... they are
// merged").
func New(schema Schema, n int, edges []Edge) (*Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("pattern: need at least the two target variables, got n=%d", n)
	}
	if n > MaxVars {
		return nil, fmt.Errorf("pattern: %d variables exceeds MaxVars=%d", n, MaxVars)
	}
	norm := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("pattern: self-loop on variable %d", e.U)
		}
		if int(e.U) >= n || int(e.V) >= n || e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("pattern: edge (%d,%d) references variable outside [0,%d)", e.U, e.V, n)
		}
		if !schema.LabelDirected(e.Label) && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm = append(norm, e)
	}
	insertionSortEdges(norm)
	norm = dedupEdges(norm)
	return &Pattern{n: n, edges: norm, schema: schema}, nil
}

// newInterned builds a pattern whose normal form and canonical identity
// were already computed externally (the merge scratch): edges must be
// normalised, sorted and deduped, and (canon, key) must be the interned
// canonical encoding of exactly this shape. The edge list is copied.
func newInterned(schema Schema, n int, edges []Edge, canon string, key Key) *Pattern {
	return &Pattern{
		n:      n,
		edges:  append([]Edge(nil), edges...),
		schema: schema,
		canon:  canon,
		key:    key,
		hasKey: true,
	}
}

// MaxVars bounds pattern size. The paper uses a size limit of 5; the cap
// of 12 keeps the permutation-based canonicalisation safe while leaving
// headroom for larger experiments.
const MaxVars = 12

// MustNew is New but panics on error; for static construction in tests.
func MustNew(schema Schema, n int, edges []Edge) *Pattern {
	p, err := New(schema, n, edges)
	if err != nil {
		panic(err)
	}
	return p
}

func dedupEdges(es []Edge) []Edge {
	out := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// NumVars reports the number of variables including the two targets.
// This is the paper's pattern "size" that the limit n bounds.
func (p *Pattern) NumVars() int { return p.n }

// NumEdges reports the number of distinct labeled edges.
func (p *Pattern) NumEdges() int { return len(p.edges) }

// Edges returns the normalised edge list. The slice is owned by the
// pattern and must not be modified.
func (p *Pattern) Edges() []Edge { return p.edges }

// Schema returns the label metadata source the pattern was built with.
func (p *Pattern) Schema() Schema { return p.schema }

// Degree reports the number of edges incident to a variable.
func (p *Pattern) Degree(v VarID) int {
	d := 0
	for _, e := range p.edges {
		if e.U == v || e.V == v {
			d++
		}
	}
	return d
}

// IsPath reports whether the pattern is a simple path between the
// targets: both targets have degree 1, every other variable degree 2,
// and the edge count is exactly NumVars-1. (A single direct edge between
// the targets is a path of length 1.)
func (p *Pattern) IsPath() bool {
	if len(p.edges) != p.n-1 {
		return false
	}
	if p.Degree(Start) != 1 || p.Degree(End) != 1 {
		return false
	}
	for v := VarID(2); int(v) < p.n; v++ {
		if p.Degree(v) != 2 {
			return false
		}
	}
	return p.connected()
}

// PathStep is one hop of a path pattern walked from the start target to
// the end target: the edge label and the orientation the matching
// knowledge-base half-edge must have at the hop's origin node (Out for a
// pattern edge leaving the origin, In for one entering it, Undirected
// for undirected labels). The sequence lets path instances be matched by
// a plain label-indexed walk, without the general backtracking matcher.
type PathStep struct {
	Label kb.LabelID
	Dir   kb.Dir
}

// PathSteps returns the start→end step sequence when p is a simple path
// (IsPath), or ok=false otherwise. The local-distribution kernel uses it
// to count path instances per end without enumerating them. Computed
// once and cached, like the canonical key.
func (p *Pattern) PathSteps() ([]PathStep, bool) {
	if !p.stepsDone {
		p.steps, p.stepsOK = p.computePathSteps()
		p.stepsDone = true
	}
	return p.steps, p.stepsOK
}

func (p *Pattern) computePathSteps() (steps []PathStep, ok bool) {
	if !p.IsPath() {
		return nil, false
	}
	steps = make([]PathStep, 0, p.n-1)
	cur, prev := Start, VarID(-1)
	for range p.edges {
		var next VarID
		var st PathStep
		found := false
		for _, e := range p.edges {
			var other VarID
			var outward bool // edge leaves cur
			switch {
			case e.U == cur && e.V != prev:
				other, outward = e.V, true
			case e.V == cur && e.U != prev:
				other, outward = e.U, false
			default:
				continue
			}
			st = PathStep{Label: e.Label, Dir: kb.Undirected}
			if p.schema.LabelDirected(e.Label) {
				if outward {
					st.Dir = kb.Out
				} else {
					st.Dir = kb.In
				}
			}
			next, found = other, true
			break
		}
		if !found {
			return nil, false // unreachable for a well-formed path
		}
		steps = append(steps, st)
		prev, cur = cur, next
	}
	if cur != End {
		return nil, false // unreachable for a well-formed path
	}
	return steps, true
}

// connected reports whether the pattern graph (edges undirected) is a
// single connected component containing every variable.
func (p *Pattern) connected() bool {
	if p.n == 0 {
		return true
	}
	adj := p.adjacency()
	seen := make([]bool, p.n)
	stack := []VarID{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				cnt++
				stack = append(stack, v)
			}
		}
	}
	return cnt == p.n
}

// adjacency builds an undirected adjacency list over variables (one entry
// per incident edge; parallel labels produce parallel entries).
func (p *Pattern) adjacency() [][]VarID {
	adj := make([][]VarID, p.n)
	for _, e := range p.edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return adj
}

// String renders the pattern compactly, e.g.
// "p{3: start-[starring]->v2, end-[starring]->v2}". Directed edges use
// -[l]->, undirected -[l]-.
func (p *Pattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p{%d:", p.n)
	for i, e := range p.edges {
		if i > 0 {
			b.WriteString(",")
		}
		arrow := "-"
		if p.schema.LabelDirected(e.Label) {
			arrow = "->"
		}
		fmt.Fprintf(&b, " %s-[%s]%s%s", varName(e.U), p.schema.LabelName(e.Label), arrow, varName(e.V))
	}
	b.WriteString("}")
	return b.String()
}

func varName(v VarID) string {
	switch v {
	case Start:
		return "start"
	case End:
		return "end"
	default:
		return fmt.Sprintf("v%d", v)
	}
}

// Describe renders a multi-line, human-oriented description of the
// pattern with entity names from an instance substituted in, used by the
// CLI and examples.
func (p *Pattern) Describe(g *kb.Graph, inst Instance) string {
	var b strings.Builder
	for i, e := range p.edges {
		if i > 0 {
			b.WriteString("; ")
		}
		uname, vname := varName(e.U), varName(e.V)
		if inst != nil {
			uname = g.NodeName(inst[e.U])
			vname = g.NodeName(inst[e.V])
		}
		if p.schema.LabelDirected(e.Label) {
			fmt.Fprintf(&b, "%s --%s--> %s", uname, p.schema.LabelName(e.Label), vname)
		} else {
			fmt.Fprintf(&b, "%s --%s-- %s", uname, p.schema.LabelName(e.Label), vname)
		}
	}
	return b.String()
}
