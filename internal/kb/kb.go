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
// of explanation enumeration: O(1) edge-existence checks, label-interned
// adjacency lists, and deterministic iteration order once the graph is
// frozen.
//
// # Concurrency
//
// Construction (AddNode, Label, AddEdge, Freeze) is single-threaded. Once
// frozen, every read accessor — Neighbors, NeighborsLabeled, Degree,
// HasEdge, NodeByName, NodesOfType, Connectedness, Reachable, Stats and
// friends — is a pure read with no lazy initialisation, so any number of
// goroutines may query one loaded graph concurrently. Freeze also builds
// the per-label adjacency index behind the matcher's candidate
// generation and the entity-type index behind NodesOfType.
package kb

import (
	"fmt"
	"maps"
	"slices"
	"sort"
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
// A frozen graph's spans are sorted by (To, Dir), with at most two
// entries per To (In and Out). On a sorted span the seek is a cursor: it
// gallops forward from *pos — steps of 1, 2, 4, … then a binary search of
// the last step — and leaves *pos at the first entry with To ≥ to. A
// caller probing one span with ascending nodes therefore merges the span
// forward instead of searching it afresh per probe: k probes over a span
// of d entries cost O(k·log(d/k)), never more than k binary searches.
// Probes must not descend between rewinds (*pos = 0); equal nodes may
// repeat. On an unsorted span (an unfrozen graph) it scans and ignores
// *pos.
func SeekHalfEdge(span []HalfEdge, pos *int, to NodeID, dir Dir, sorted bool) bool {
	if !sorted {
		for _, he := range span {
			if he.To == to && he.Dir == dir {
				return true
			}
		}
		return false
	}
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

// Graph is a labeled multigraph knowledge base. The zero value is an
// empty graph ready to use.
//
// Graphs are built with AddNode/AddEdge and then (optionally) frozen with
// Freeze, which sorts adjacency lists so that all iteration is
// deterministic. Mutating a frozen graph unfreezes it. Graph is not safe
// for concurrent mutation; concurrent reads are safe.
type Graph struct {
	// nodes, the two name maps and the three label tables are shared
	// between the frozen generations a compaction or an overlay derives
	// from one another, so no frozen graph writes to them: thaw gives a
	// graph private copies before a mutator touches any. byName is the
	// full index built when the table was last folded; addedNames holds
	// the names added since (nil when byName is complete, see Compact).
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

	// Build-time representation: per-node adjacency lists plus the
	// edge-existence set behind AddEdge's duplicate detection. Valid
	// whenever the graph is unfrozen; Freeze flattens both into the CSR
	// arrays below and releases them, and thaw reconstructs them before
	// the first post-freeze mutation.
	adj      [][]HalfEdge
	edgeSet  map[edgeKey]struct{}
	numEdges int
	frozen   bool

	// CSR read path, built by Freeze: every half-edge of the graph lives
	// in one contiguous backing array per view, with per-node offset
	// spans. csr is the plain adjacency view — node i's half-edges are
	// csr[csrOff[i]:csrOff[i+1]], sorted by (To, Label, Dir) — and
	// labelCSR the per-label view, same spans re-sorted by (Label, To,
	// Dir) with spans[spanOff[i]:spanOff[i+1]] locating each label run.
	// Both views index into flat arrays, so a frozen graph costs two
	// half-edge arrays plus three small offset arrays no matter how many
	// nodes it has — no per-node slice headers, no pointer chasing.
	csrOff   []int32
	csr      []HalfEdge
	labelCSR []HalfEdge
	spanOff  []int32
	spans    []labelSpan

	// Remaining read-path indexes, precomputed by Freeze so concurrent
	// queries never mutate shared state.
	byType    map[string][]NodeID
	fp        string // content fingerprint, computed by Freeze
	xorFP     uint64 // XOR-combinable content hash behind fp (see mutate.go)
	maxDegree int    // largest Degree, kept by every pass that builds a frozen graph

	// ov marks this graph as an overlay generation: the CSR arrays above
	// are aliased from an immutable frozen base, and nodes whose
	// adjacency changed since that base are patched through ov (see
	// overlay.go). nil for ordinary graphs.
	ov *overlay
}

// labelSpan locates the half-edges with one label inside the flat
// label-sorted adjacency array; off is an absolute labelCSR offset.
type labelSpan struct {
	label LabelID
	off   int32
	n     int32
}

// edgeKey packs (from, to, label) into a comparable map key. Direction is
// implied by the label's directedness; undirected edges are inserted in
// both orientations.
type edgeKey struct {
	from, to NodeID
	label    LabelID
}

// New returns an empty graph. Equivalent to new(Graph) but reads better
// at call sites.
func New() *Graph { return &Graph{} }

// NumNodes reports the number of entities.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of edges (undirected edges count once).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumLabels reports the number of distinct relationship labels.
func (g *Graph) NumLabels() int { return len(g.labels) }

// AddNode inserts an entity and returns its ID. If an entity with the
// same name already exists its ID is returned and the type is left
// unchanged.
func (g *Graph) AddNode(name, typ string) NodeID {
	if id := g.NodeByName(name); id != InvalidNode {
		return id
	}
	g.thaw()
	if g.byName == nil {
		g.byName = make(map[string]NodeID)
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Type: typ})
	g.adj = append(g.adj, nil)
	g.byName[name] = id
	return id
}

// Label interns a relationship label, registering whether relationships
// with that label are directed. It returns an error if the label was
// previously registered with the opposite directedness.
func (g *Graph) Label(name string, directed bool) (LabelID, error) {
	if id, ok := g.labelIDs[name]; ok {
		if g.labelDirected[id] != directed {
			return InvalidLabel, fmt.Errorf("kb: label %q registered as directed=%v, got directed=%v",
				name, g.labelDirected[id], directed)
		}
		return id, nil
	}
	// Labels are part of the hashed content, so registering one must
	// invalidate the frozen fingerprint like every other mutation.
	g.thaw()
	if g.labelIDs == nil {
		g.labelIDs = make(map[string]LabelID)
	}
	id := LabelID(len(g.labels))
	g.labels = append(g.labels, name)
	g.labelDirected = append(g.labelDirected, directed)
	g.labelIDs[name] = id
	return id, nil
}

// MustLabel is Label but panics on directedness conflicts. Intended for
// graph construction in tests and generators where labels are static.
func (g *Graph) MustLabel(name string, directed bool) LabelID {
	id, err := g.Label(name, directed)
	if err != nil {
		panic(err)
	}
	return id
}

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

// AddEdge inserts an edge between two existing entities. The label's
// directedness decides whether the edge is directed (from→to) or
// undirected. Duplicate edges (same endpoints and label, respecting
// orientation) are ignored, making the graph a set-multigraph: multiple
// labels may connect the same pair but each (pair, label) occurs once.
// It reports whether the edge was newly inserted.
func (g *Graph) AddEdge(from, to NodeID, label LabelID) (bool, error) {
	if int(from) >= len(g.nodes) || from < 0 {
		return false, fmt.Errorf("kb: AddEdge: from node %d out of range", from)
	}
	if int(to) >= len(g.nodes) || to < 0 {
		return false, fmt.Errorf("kb: AddEdge: to node %d out of range", to)
	}
	if int(label) >= len(g.labels) || label < 0 {
		return false, fmt.Errorf("kb: AddEdge: label %d out of range", label)
	}
	if from == to {
		return false, fmt.Errorf("kb: AddEdge: self-loop on node %d (%s) not supported", from, g.NodeName(from))
	}
	g.thaw()
	if g.edgeSet == nil {
		g.edgeSet = make(map[edgeKey]struct{})
	}
	directed := g.labelDirected[label]
	key := edgeKey{from, to, label}
	if !directed && from > to {
		key = edgeKey{to, from, label}
	}
	if _, dup := g.edgeSet[key]; dup {
		return false, nil
	}
	g.edgeSet[key] = struct{}{}
	if directed {
		g.adj[from] = append(g.adj[from], HalfEdge{To: to, Label: label, Dir: Out})
		g.adj[to] = append(g.adj[to], HalfEdge{To: from, Label: label, Dir: In})
	} else {
		g.adj[from] = append(g.adj[from], HalfEdge{To: to, Label: label, Dir: Undirected})
		g.adj[to] = append(g.adj[to], HalfEdge{To: from, Label: label, Dir: Undirected})
	}
	g.numEdges++
	return true, nil
}

// MustAddEdge is AddEdge but panics on error. Intended for static graph
// construction.
func (g *Graph) MustAddEdge(from, to NodeID, label LabelID) {
	if _, err := g.AddEdge(from, to, label); err != nil {
		panic(err)
	}
}

// HasEdge reports whether an edge with the given label connects from and
// to. For directed labels the orientation from→to is required; for
// undirected labels either orientation matches. On a frozen graph the
// check is a seek from the start of the node's label-sorted CSR span — no
// map, no hashing; on an unfrozen graph it consults the edge set.
func (g *Graph) HasEdge(from, to NodeID, label LabelID) bool {
	if g.frozen {
		if from < 0 || int(from) >= len(g.nodes) {
			return false
		}
		dir := Undirected
		if g.LabelDirected(label) {
			dir = Out // the required orientation
		}
		pos := 0
		return SeekHalfEdge(g.NeighborsLabeled(from, label), &pos, to, dir, true)
	}
	if g.edgeSet == nil {
		return false
	}
	if int(label) < len(g.labelDirected) && !g.labelDirected[label] && from > to {
		from, to = to, from
	}
	_, ok := g.edgeSet[edgeKey{from, to, label}]
	return ok
}

// Degree reports the number of half-edges at a node (each undirected or
// directed incident edge counts once).
func (g *Graph) Degree(id NodeID) int {
	if g.frozen {
		if g.ov != nil {
			if on := g.ov.node(id); on != nil {
				return len(on.csr)
			}
		}
		return int(g.csrOff[id+1] - g.csrOff[id])
	}
	return len(g.adj[id])
}

// Neighbors returns the half-edges at a node. The returned slice is owned
// by the graph and must not be modified. On a frozen graph it is a span
// of the contiguous CSR array, deterministically ordered by (To, Label,
// Dir); on an overlay generation, nodes the overlay touched answer from
// their materialised span instead, in the identical order.
func (g *Graph) Neighbors(id NodeID) []HalfEdge {
	if g.frozen {
		if g.ov != nil {
			if on := g.ov.node(id); on != nil {
				return on.csr
			}
		}
		return g.csr[g.csrOff[id]:g.csrOff[id+1]]
	}
	return g.adj[id]
}

// Edges returns every edge once, ordered by (From, To, Label). Undirected
// edges are reported with From ≤ To. On a frozen graph the list streams
// straight out of the CSR spans, which are already in emission order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	if g.frozen {
		for i := range g.nodes {
			from := NodeID(i)
			for _, he := range g.Neighbors(from) {
				if he.Dir == Out || (he.Dir == Undirected && from <= he.To) {
					out = append(out, Edge{From: from, To: he.To, Label: he.Label})
				}
			}
		}
		return out
	}
	for k := range g.edgeSet {
		out = append(out, Edge{From: k.from, To: k.to, Label: k.label})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Freeze flattens the per-node adjacency lists into the contiguous CSR
// arrays (sorted so iteration order is deterministic across runs),
// precomputes the read-path indexes (per-label adjacency spans and
// entity-type lists) that make the graph safe and fast to query from
// many goroutines, computes the content fingerprint served by
// Fingerprint, and releases the build-time adjacency lists and edge set —
// a frozen graph is the CSR arrays. Freeze is idempotent and cheap when
// already frozen; mutating a frozen graph reconstructs the build-time
// state transparently (see thaw).
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.buildCSR()
	g.adj = nil
	g.edgeSet = nil
	g.frozen = true
	g.buildTypeIndex()
	g.xorFP = g.contentXor()
	g.fp = fpString(g.NumNodes(), g.NumEdges(), g.NumLabels(), g.xorFP)
}

// buildCSR concatenates the adjacency lists into the flat csr array,
// sorts each node's span by (To, Label, Dir), and derives the label view.
// Backing arrays from a previous freeze are reused.
func (g *Graph) buildCSR() {
	n := len(g.nodes)
	g.csrOff = sized(g.csrOff, n+1)
	g.csr = sized(g.csr, 2*g.numEdges)[:0] // two half-edges an edge: self-loops are refused
	g.csrOff[0] = 0
	g.maxDegree = 0
	for i := 0; i < n; i++ {
		g.csr = append(g.csr, g.adj[i]...)
		g.csrOff[i+1] = int32(len(g.csr))
		g.maxDegree = max(g.maxDegree, len(g.adj[i]))
	}
	for i := 0; i < n; i++ {
		span := g.csr[g.csrOff[i]:g.csrOff[i+1]]
		sort.Slice(span, func(x, y int) bool {
			if span[x].To != span[y].To {
				return span[x].To < span[y].To
			}
			if span[x].Label != span[y].Label {
				return span[x].Label < span[y].Label
			}
			return span[x].Dir < span[y].Dir
		})
	}
	g.deriveLabelView()
}

// deriveLabelView builds labelCSR (each node's span re-sorted by (Label,
// To, Dir)) and the flat per-label span index from the sorted csr array.
// Because a node's csr span is already sorted by (To, Dir) within each
// label, a stable counting pass per node — group sizes, then placement in
// traversal order — produces the label view without a comparison sort.
// Every array is sized before it is written: a first sweep counts the
// (node, label) runs, so nothing grows and nothing is copied.
func (g *Graph) deriveLabelView() {
	n := len(g.nodes)
	g.labelCSR = sized(g.labelCSR, len(g.csr))
	g.spanOff = sized(g.spanOff, n+1)
	// slot is the one scratch, indexed by label. In the first sweep it
	// holds the last node (plus one) seen carrying the label; in the
	// second, per node, the label's count, then its write offset, then 0.
	slot := make([]int32, len(g.labels))
	runs := int32(0)
	for i := 0; i < n; i++ {
		g.spanOff[i] = runs
		for _, he := range g.csr[g.csrOff[i]:g.csrOff[i+1]] {
			if slot[he.Label] != int32(i)+1 {
				slot[he.Label] = int32(i) + 1
				runs++
			}
		}
	}
	g.spanOff[n] = runs
	g.spans = sized(g.spans, int(runs))
	clear(slot)
	for i := 0; i < n; i++ {
		off := g.csrOff[i]
		span := g.csr[off:g.csrOff[i+1]]
		touched := g.spans[g.spanOff[i]:g.spanOff[i]]
		for _, he := range span {
			if slot[he.Label] == 0 {
				touched = append(touched, labelSpan{label: he.Label})
			}
			slot[he.Label]++
		}
		// Ascending label order for the binary search in NeighborsLabeled:
		// an insertion sort, because a node carries a handful of labels
		// and sort.Slice allocates twice per call — once per node of
		// every Freeze.
		for x := 1; x < len(touched); x++ {
			for y := x; y > 0 && touched[y].label < touched[y-1].label; y-- {
				touched[y], touched[y-1] = touched[y-1], touched[y]
			}
		}
		for t := range touched {
			sp := &touched[t]
			sp.off, sp.n = off, slot[sp.label]
			slot[sp.label] = off
			off += sp.n
		}
		// Stable placement: traversal order within a label is (To, Dir).
		for _, he := range span {
			g.labelCSR[slot[he.Label]] = he
			slot[he.Label]++
		}
		for _, sp := range touched {
			slot[sp.label] = 0
		}
	}
}

// sized returns s with length n, reusing its backing array when that is
// large enough (a re-freeze) and allocating exactly n otherwise. The
// contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// thaw reconstructs the build-time representation (per-node adjacency
// lists and the edge-existence set) from the CSR arrays so a frozen graph
// can be mutated again. Every mutator calls it first; on an unfrozen
// graph it is a no-op. The node table, the name index and the label
// tables are copied, since other frozen generations may share them, and
// the copy gives up the node table's claim. The CSR views are
// truncated, keeping their backing arrays for the next Freeze. An
// overlay generation instead detaches from its base entirely — the
// aliased arrays belong to the base, which keeps serving other
// generations.
func (g *Graph) thaw() {
	if !g.frozen {
		return
	}
	adj := g.adjFromCSR() // reads through the frozen, overlay-aware path
	g.frozen = false
	g.adj = adj
	g.edgeSet = edgeSetFromAdj(adj)
	g.nodes, g.claim = append([]Node(nil), g.nodes...), nil
	g.byName, g.addedNames = g.nameIndex(), nil
	g.labels = slices.Clone(g.labels)
	g.labelDirected = slices.Clone(g.labelDirected)
	g.labelIDs = maps.Clone(g.labelIDs)
	if g.ov != nil {
		g.csr, g.csrOff, g.labelCSR, g.spanOff, g.spans = nil, nil, nil, nil, nil
		g.byType = nil
		g.ov = nil
	} else {
		g.csr = g.csr[:0]
		g.csrOff = g.csrOff[:0]
		g.labelCSR = g.labelCSR[:0]
		g.spanOff = g.spanOff[:0]
		g.spans = g.spans[:0]
	}
	g.fp = ""
}

// nameIndex builds a complete, private name index from the node table.
func (g *Graph) nameIndex() map[string]NodeID {
	m := make(map[string]NodeID, len(g.nodes))
	for i := range g.nodes {
		m[g.nodes[i].Name] = g.nodes[i].ID
	}
	return m
}

// adjFromCSR copies the frozen spans back into per-node adjacency
// lists. It must be called while the graph is still frozen: it reads
// through Neighbors so overlay generations resolve correctly.
func (g *Graph) adjFromCSR() [][]HalfEdge {
	adj := make([][]HalfEdge, len(g.nodes))
	for i := range adj {
		span := g.Neighbors(NodeID(i))
		if len(span) > 0 {
			adj[i] = append([]HalfEdge(nil), span...)
		}
	}
	return adj
}

// edgeSetFromAdj rebuilds the edge-existence set behind AddEdge's
// duplicate detection and the unfrozen HasEdge.
func edgeSetFromAdj(adj [][]HalfEdge) map[edgeKey]struct{} {
	total := 0
	for _, a := range adj {
		total += len(a)
	}
	set := make(map[edgeKey]struct{}, total/2)
	for i, a := range adj {
		from := NodeID(i)
		for _, he := range a {
			switch he.Dir {
			case Out:
				set[edgeKey{from, he.To, he.Label}] = struct{}{}
			case Undirected:
				if from <= he.To {
					set[edgeKey{from, he.To, he.Label}] = struct{}{}
				}
			}
		}
	}
	return set
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
// label. On a frozen graph this is an allocation-free slice of the
// precomputed label index, ordered by (To, Dir) — the same relative order
// as Neighbors filtered to the label. On an unfrozen graph it falls back
// to a filtered copy. The returned slice is owned by the graph and must
// not be modified.
func (g *Graph) NeighborsLabeled(id NodeID, label LabelID) []HalfEdge {
	if g.frozen && int(id) < len(g.nodes) {
		if g.ov != nil {
			if on := g.ov.node(id); on != nil {
				return on.labeled(label)
			}
		}
		spans := g.spans[g.spanOff[id]:g.spanOff[id+1]]
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
			return g.labelCSR[sp.off : sp.off+sp.n]
		}
		return nil
	}
	var out []HalfEdge
	for _, he := range g.adj[id] {
		if he.Label == label {
			out = append(out, he)
		}
	}
	return out
}

// Frozen reports whether adjacency iteration order is deterministic.
func (g *Graph) Frozen() bool { return g.frozen }

// Nodes returns all entity records in ID order. The slice is a copy.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NodesOfType returns the IDs of all entities with the given type, in ID
// order. On a frozen graph the result is copied from the precomputed
// type index instead of scanning every node. The slice is always a copy.
func (g *Graph) NodesOfType(typ string) []NodeID {
	if g.frozen {
		if g.ov != nil {
			return g.ov.nodesOfType(typ)
		}
		return append([]NodeID(nil), g.byType[typ]...)
	}
	var out []NodeID
	for _, n := range g.nodes {
		if n.Type == typ {
			out = append(out, n.ID)
		}
	}
	return out
}

// Stats summarises the graph for logging and experiment reports.
type Stats struct {
	Nodes     int
	Edges     int
	Labels    int
	MaxDegree int
	AvgDegree float64
}

// Stats computes summary statistics over the graph. The degrees sum to
// two half-edges per edge (self-loops are rejected), and a frozen graph
// carries its maximum degree from whatever pass built it, so on a frozen
// graph — overlay generations included — Stats is constant-time. An
// unfrozen graph is scanned for the maximum.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Labels: g.NumLabels(), MaxDegree: g.maxDegree}
	if !g.frozen {
		s.MaxDegree = g.scanMaxDegree()
	}
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
