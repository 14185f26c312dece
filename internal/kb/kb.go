// Package kb implements the knowledge-base graph that REX explains
// relationships over.
//
// A knowledge base is the three-tuple G = (V, E, λ) of Section 2.1 of the
// paper: entities are nodes, primary relationships are labeled edges, and
// λ maps every edge to its relationship label. Edges are either directed
// (e.g. "starring") or undirected (e.g. "spouse"); whether a relationship
// is directed is a property of its label, fixed when the label is first
// registered.
//
// The graph is an in-memory multigraph optimised for the access patterns
// of explanation enumeration: label-interned adjacency in one flat CSR
// array whose per-node spans are sorted by (Label, To, Dir), so every
// iteration order is deterministic, a label's half-edges are one run of
// the span, and an edge-existence check seeks that run.
//
// # Construction and concurrency
//
// A Builder collects nodes, labels and edges (AddNode, Label, AddEdge,
// RemoveEdge, SetNodeType) on one goroutine and turns them into a Graph
// with Build, which empties the builder. A Graph has no mutator: every
// accessor — Neighbors, NeighborsLabeled, Degree, HasEdge, NodeByName,
// NodesOfType, Connectedness, Stats and friends — is a pure read with
// no lazy initialisation, so any number of goroutines may query one
// graph concurrently. Change goes through an OverlayBuilder, which
// derives the next graph from a source it never writes to; Compact folds
// such a chain into a plain graph the same way.
package kb

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sync/atomic"
)

// NodeID identifies an entity in the knowledge base. IDs are dense and
// assigned in insertion order starting from 0.
type NodeID int32

// InvalidNode is returned by lookups that find no entity.
const InvalidNode NodeID = -1

// LabelID identifies an interned relationship label.
type LabelID int32

// InvalidLabel is returned by label lookups that find no label.
const InvalidLabel LabelID = -1

// Dir describes the orientation of an edge as seen from one endpoint.
type Dir int8

// Edge orientations relative to the owning node of a HalfEdge.
const (
	// Out means the edge points away from the owning node.
	Out Dir = iota
	// In means the edge points toward the owning node.
	In
	// Undirected means the edge has no orientation.
	Undirected
)

// String returns a short human-readable orientation name.
func (d Dir) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	case Undirected:
		return "undirected"
	}
	return fmt.Sprintf("Dir(%d)", int8(d))
}

// Reverse returns the orientation of the same edge seen from its other
// endpoint: Out and In swap, Undirected stays.
func (d Dir) Reverse() Dir {
	switch d {
	case Out:
		return In
	case In:
		return Out
	}
	return Undirected
}

// Node is an entity: a stable ID, a unique human-readable name and an
// entity type (e.g. "person", "film").
type Node struct {
	ID   NodeID
	Name string
	Type string
}

// HalfEdge is one endpoint's view of an edge. A directed edge u→v is
// stored as {To: v, Dir: Out} on u and {To: u, Dir: In} on v; an
// undirected edge is stored with Dir Undirected on both endpoints.
type HalfEdge struct {
	To    NodeID
	Label LabelID
	Dir   Dir
}

// SeekHalfEdge reports whether one label's span (NeighborsLabeled) holds a
// half-edge to the given node with the given orientation.
//
// Every label's span of a graph is sorted by (To, Dir), with at most two
// entries per To (In and Out), so the seek is a cursor: it gallops
// forward from *pos — steps of 1, 2, 4, … then a binary search of the
// last step — and leaves *pos at the first entry with To ≥ to. A caller probing one span
// with ascending nodes therefore merges the span forward instead of
// searching it afresh per probe: k probes over a span of d entries cost
// O(k·log(d/k)), never more than k binary searches. Probes must not
// descend between rewinds (*pos = 0); equal nodes may repeat.
func SeekHalfEdge(span []HalfEdge, pos *int, to NodeID, dir Dir) bool {
	lo := *pos
	if lo < len(span) && span[lo].To < to {
		// span[lo].To < to ≤ span[hi].To (or hi is past the end): the
		// answer lies in (lo, hi].
		hi, step := lo+1, 1
		for hi < len(span) && span[hi].To < to {
			lo = hi
			step <<= 1
			hi = lo + step
		}
		hi = min(hi, len(span))
		for lo++; lo < hi; {
			mid := int(uint(lo+hi) >> 1)
			if span[mid].To < to {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		*pos = lo
	}
	for ; lo < len(span) && span[lo].To == to; lo++ {
		if span[lo].Dir == dir {
			return true
		}
	}
	return false
}

// Edge is a full edge record as returned by Graph.Edges.
type Edge struct {
	From  NodeID
	To    NodeID
	Label LabelID
}

// Graph is a labeled multigraph knowledge base, read-only once it exists.
// A Builder builds one (Build), a loader decodes one (ReadBinary), and an
// OverlayBuilder or Compact derives one from another; none of them, and
// no method of Graph, ever writes to a Graph another caller holds, so any
// number of goroutines may read one concurrently.
type Graph struct {
	// nodes, the two name maps and the three label tables are shared
	// between the generations a compaction or an overlay derives from one
	// another. byName is the full index built when the table was last
	// folded; addedNames holds the names added since (nil when byName is
	// complete, see Compact).
	nodes      []Node
	byName     map[string]NodeID
	addedNames map[string]NodeID

	// claim is the tip-owner token of the node table's backing array:
	// how much of it has been handed out. The generations that alias one
	// array share its claim, and an overlay builder appends into the
	// spare capacity past nodes only if it moves the claim from
	// len(nodes) (see appendNodes), so no two generations ever write the
	// same slot. nil when no generation may append in place.
	claim *atomic.Int64

	labels        []string
	labelIDs      map[string]LabelID
	labelDirected []bool

	numEdges int

	// CSR read path: every half-edge of the graph lives in one contiguous
	// array. Node i's half-edges are csr[csrOff[i]:csrOff[i+1]], sorted by
	// (Label, To, Dir), and spans[spanOff[i]:spanOff[i+1]] locate that
	// span's label runs in ascending label order. A graph costs one
	// half-edge array, one run array and two offset arrays no matter how
	// many nodes it has — no per-node slice headers, no pointer chasing.
	csrOff  []int32
	csr     []HalfEdge
	spanOff []int32
	spans   []labelSpan

	// Remaining read-path indexes, precomputed when the graph is made so
	// concurrent queries never mutate shared state.
	byType    map[string][]NodeID
	fp        string // content fingerprint
	xorFP     uint64 // XOR-combinable content hash behind fp (see fingerprint.go)
	maxDegree int    // largest Degree, kept by every pass that makes a graph

	// ov marks this graph as an overlay generation: the CSR arrays above
	// are aliased from an immutable base, and nodes whose adjacency
	// changed since that base are patched through ov (see overlay.go).
	// nil for ordinary graphs.
	ov *overlay
}

// labelSpan locates the half-edges with one label inside a label-sorted
// adjacency array.
type labelSpan struct {
	label LabelID
	off   int32
	n     int32
}

// compareHalfEdges is the order of every span: (Label, To, Dir).
func compareHalfEdges(x, y HalfEdge) int {
	return cmp.Or(cmp.Compare(x.Label, y.Label), cmp.Compare(x.To, y.To), cmp.Compare(x.Dir, y.Dir))
}

// appendRuns appends the label runs of a (Label, To, Dir)-sorted span to
// runs, with offsets shifted by off, the span's position in the array
// the runs index.
func appendRuns(runs []labelSpan, span []HalfEdge, off int32) []labelSpan {
	for i := 0; i < len(span); {
		j := i + 1
		for j < len(span) && span[j].Label == span[i].Label {
			j++
		}
		runs = append(runs, labelSpan{label: span[i].Label, off: off + int32(i), n: int32(j - i)})
		i = j
	}
	return runs
}

// labeled binary searches one node's label runs for label and returns its
// half-edges from the array the runs' offsets index.
func labeled(spans []labelSpan, csr []HalfEdge, label LabelID) []HalfEdge {
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if spans[mid].label < label {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(spans) && spans[lo].label == label {
		sp := spans[lo]
		return csr[sp.off : sp.off+sp.n]
	}
	return nil
}

// NumNodes reports the number of entities.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of edges (undirected edges count once).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumLabels reports the number of distinct relationship labels.
func (g *Graph) NumLabels() int { return len(g.labels) }

// LabelName returns the interned name for a label ID.
func (g *Graph) LabelName(id LabelID) string {
	if id < 0 || int(id) >= len(g.labels) {
		return fmt.Sprintf("label(%d)", id)
	}
	return g.labels[id]
}

// LabelByName looks up a label ID by name, returning InvalidLabel if the
// label is unknown.
func (g *Graph) LabelByName(name string) LabelID {
	if id, ok := g.labelIDs[name]; ok {
		return id
	}
	return InvalidLabel
}

// LabelDirected reports whether edges with the given label are directed.
func (g *Graph) LabelDirected(id LabelID) bool {
	return int(id) < len(g.labelDirected) && g.labelDirected[id]
}

// Labels returns all label IDs in registration order.
func (g *Graph) Labels() []LabelID {
	out := make([]LabelID, len(g.labels))
	for i := range out {
		out[i] = LabelID(i)
	}
	return out
}

// Node returns the entity record for an ID. It panics if the ID is out of
// range, matching slice semantics.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// NodeByName looks an entity up by its unique name, returning InvalidNode
// when absent.
func (g *Graph) NodeByName(name string) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	if id, ok := g.addedNames[name]; ok {
		return id
	}
	if g.ov != nil {
		for _, lv := range g.ov.added {
			if id, ok := lv.byName[name]; ok {
				return id
			}
		}
	}
	return InvalidNode
}

// NodeName returns the name of an entity, or a placeholder for an
// out-of-range ID.
func (g *Graph) NodeName(id NodeID) string {
	if id < 0 || int(id) >= len(g.nodes) {
		return fmt.Sprintf("node(%d)", id)
	}
	return g.nodes[id].Name
}

// HasEdge reports whether an edge with the given label connects from and
// to. For directed labels the orientation from→to is required; for
// undirected labels either orientation matches. The check is a seek from
// the start of the label's run of the node's span — no map, no hashing.
func (g *Graph) HasEdge(from, to NodeID, label LabelID) bool {
	if from < 0 || int(from) >= len(g.nodes) {
		return false
	}
	dir := Undirected
	if g.LabelDirected(label) {
		dir = Out // the required orientation
	}
	pos := 0
	return SeekHalfEdge(g.NeighborsLabeled(from, label), &pos, to, dir)
}

// Degree reports the number of half-edges at a node (each undirected or
// directed incident edge counts once).
func (g *Graph) Degree(id NodeID) int {
	if g.ov != nil {
		if on := g.ov.node(id); on != nil {
			return len(on.csr)
		}
	}
	return int(g.csrOff[id+1] - g.csrOff[id])
}

// Neighbors returns the half-edges at a node. The returned slice is owned
// by the graph and must not be modified. It is a span of the contiguous
// CSR array, deterministically ordered by (Label, To, Dir); on an overlay
// generation, nodes the overlay touched answer from their materialised
// span instead, in the identical order.
func (g *Graph) Neighbors(id NodeID) []HalfEdge {
	if g.ov != nil {
		if on := g.ov.node(id); on != nil {
			return on.csr
		}
	}
	return g.csr[g.csrOff[id]:g.csrOff[id+1]]
}

// Edges returns every edge once, ordered by (From, Label, To). Undirected
// edges are reported with From ≤ To. The list streams straight out of the
// CSR spans, which are already in emission order.
func (g *Graph) Edges() []Edge {
	return slices.AppendSeq(make([]Edge, 0, g.numEdges), g.allEdges())
}

// allEdges yields every edge once, in Edges order: each node's Out
// half-edges and its Undirected ones toward a node not below it.
func (g *Graph) allEdges() iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		for i := range g.nodes {
			from := NodeID(i)
			for _, he := range g.Neighbors(from) {
				if he.Dir == Out || (he.Dir == Undirected && from <= he.To) {
					if !yield(Edge{From: from, To: he.To, Label: he.Label}) {
						return
					}
				}
			}
		}
	}
}

// Freeze does nothing: every Graph is built read-only. It remains for
// callers written when a graph was mutable until frozen.
//
// Deprecated: a Graph needs no freezing.
func (g *Graph) Freeze() {}

// buildCSR concatenates the adjacency lists into the flat csr array,
// sorts each node's span by (Label, To, Dir) and indexes its label runs.
func (g *Graph) buildCSR(adj [][]HalfEdge) {
	g.csrOff = make([]int32, len(g.nodes)+1)
	g.csr = make([]HalfEdge, 0, 2*g.numEdges) // two half-edges an edge: self-loops are refused
	for i := range g.nodes {
		g.csr = append(g.csr, adj[i]...)
		g.csrOff[i+1] = int32(len(g.csr))
		g.maxDegree = max(g.maxDegree, len(adj[i]))
		slices.SortFunc(g.csr[g.csrOff[i]:], compareHalfEdges)
	}
	g.indexRuns()
}

// indexRuns builds spanOff and spans from the sorted csr spans. A first
// sweep counts the runs, so the run array is allocated at its size.
func (g *Graph) indexRuns() {
	runs := 0
	for i := range g.nodes {
		for j := g.csrOff[i]; j < g.csrOff[i+1]; j++ {
			if j == g.csrOff[i] || g.csr[j].Label != g.csr[j-1].Label {
				runs++
			}
		}
	}
	g.spanOff = make([]int32, len(g.nodes)+1)
	g.spans = make([]labelSpan, 0, runs)
	for i := range g.nodes {
		g.spans = appendRuns(g.spans, g.csr[g.csrOff[i]:g.csrOff[i+1]], g.csrOff[i])
		g.spanOff[i+1] = int32(len(g.spans))
	}
}

// nameIndex builds a complete, private name index from the node table.
func (g *Graph) nameIndex() map[string]NodeID {
	m := make(map[string]NodeID, len(g.nodes))
	for i := range g.nodes {
		m[g.nodes[i].Name] = g.nodes[i].ID
	}
	return m
}

// buildTypeIndex materialises the entity-type → node-ID lists behind
// NodesOfType.
func (g *Graph) buildTypeIndex() {
	g.byType = make(map[string][]NodeID)
	for _, n := range g.nodes {
		g.byType[n.Type] = append(g.byType[n.Type], n.ID)
	}
}

// NeighborsLabeled returns the half-edges at a node carrying the given
// label, ordered by (To, Dir): the label's run of the Neighbors span,
// found by a binary search of the node's label runs, with no allocation.
// The returned slice is owned by the graph and must not be modified.
func (g *Graph) NeighborsLabeled(id NodeID, label LabelID) []HalfEdge {
	if g.ov != nil {
		if on := g.ov.node(id); on != nil {
			return labeled(on.spans, on.csr, label)
		}
	}
	return labeled(g.spans[g.spanOff[id]:g.spanOff[id+1]], g.csr, label)
}

// Nodes returns all entity records in ID order. The slice is a copy.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NodesOfType returns the IDs of all entities with the given type, in ID
// order, copied from the precomputed type index instead of scanning every
// node. The slice is always a copy.
func (g *Graph) NodesOfType(typ string) []NodeID {
	if g.ov != nil {
		return g.ov.nodesOfType(typ)
	}
	return append([]NodeID(nil), g.byType[typ]...)
}

// Stats summarises the graph for logging and experiment reports.
type Stats struct {
	Nodes     int
	Edges     int
	Labels    int
	MaxDegree int
	AvgDegree float64
}

// Stats computes summary statistics over the graph in constant time. The
// degrees sum to two half-edges per edge (self-loops are rejected), and
// a graph — overlay generations included — carries its maximum degree
// from whatever pass made it.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Labels: g.NumLabels(), MaxDegree: g.maxDegree}
	if s.Nodes > 0 {
		s.AvgDegree = float64(2*g.numEdges) / float64(s.Nodes)
	}
	return s
}

// scanMaxDegree visits every node for the largest degree.
func (g *Graph) scanMaxDegree() int {
	m := 0
	for i := range g.nodes {
		m = max(m, g.Degree(NodeID(i)))
	}
	return m
}
