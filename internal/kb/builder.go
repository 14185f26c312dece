package kb

import "fmt"

// Builder collects the nodes, labels and edges of a knowledge base and
// builds it into a Graph. The zero value is an empty builder ready to
// use. A Builder is not safe for concurrent use; the Graph it builds is.
type Builder struct {
	nodes         []Node
	byName        map[string]NodeID
	labels        []string
	labelIDs      map[string]LabelID
	labelDirected []bool

	// adj holds every node's half-edges in insertion order; has searches it.
	adj      [][]HalfEdge
	numEdges int
}

// edgeKey packs (from, to, label) into OverlayBuilder's map key. Direction
// is implied by the label's directedness; an undirected edge is keyed
// with from ≤ to (see canonicalKey).
type edgeKey struct {
	from, to NodeID
	label    LabelID
}

// canonicalKey returns an edge's storage key: a directed edge keeps its
// orientation, an undirected one orders from ≤ to.
func canonicalKey(from, to NodeID, label LabelID, directed bool) edgeKey {
	if !directed && from > to {
		from, to = to, from
	}
	return edgeKey{from, to, label}
}

// halves returns the half-edges an edge stores at its from and at its to
// endpoint.
func halves(from, to NodeID, label LabelID, directed bool) (HalfEdge, HalfEdge) {
	if directed {
		return HalfEdge{To: to, Label: label, Dir: Out}, HalfEdge{To: from, Label: label, Dir: In}
	}
	return HalfEdge{To: to, Label: label, Dir: Undirected}, HalfEdge{To: from, Label: label, Dir: Undirected}
}

// checkEdge validates an edge's references against nodes and labels IDs;
// op names the operation in the error. Both builders share it, so a delta
// fails with the same text whichever of them replays it.
func checkEdge(op string, from, to NodeID, label LabelID, nodes, labels int) error {
	switch {
	case from < 0 || int(from) >= nodes:
		return fmt.Errorf("kb: %s: from node %d out of range", op, from)
	case to < 0 || int(to) >= nodes:
		return fmt.Errorf("kb: %s: to node %d out of range", op, to)
	case label < 0 || int(label) >= labels:
		return fmt.Errorf("kb: %s: label %d out of range", op, label)
	}
	return nil
}

// labelConflict is the error of registering a label with the opposite
// directedness.
func labelConflict(name string, was, got bool) error {
	return fmt.Errorf("kb: label %q registered as directed=%v, got directed=%v", name, was, got)
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// NewBuilderFrom returns a builder holding g's content: its nodes in ID
// order, its labels in registration order and its edges in Edges order,
// so Build reproduces g's IDs, spans and fingerprint. g is only read.
func NewBuilderFrom(g *Graph) *Builder {
	b := NewBuilder()
	for _, n := range g.nodes {
		b.AddNode(n.Name, n.Type)
	}
	for i, name := range g.labels {
		b.MustLabel(name, g.labelDirected[i])
	}
	for _, e := range g.Edges() {
		b.MustAddEdge(e.From, e.To, e.Label)
	}
	return b
}

// AddNode inserts an entity and returns its ID. If an entity with the
// same name already exists its ID is returned and the type is left
// unchanged.
func (b *Builder) AddNode(name, typ string) NodeID {
	if id := b.NodeByName(name); id != InvalidNode {
		return id
	}
	if b.byName == nil {
		b.byName = make(map[string]NodeID)
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Name: name, Type: typ})
	b.adj = append(b.adj, nil)
	b.byName[name] = id
	return id
}

// NodeByName looks an entity up by its unique name, returning InvalidNode
// when absent.
func (b *Builder) NodeByName(name string) NodeID {
	if id, ok := b.byName[name]; ok {
		return id
	}
	return InvalidNode
}

// NodeType reports an entity's current type.
func (b *Builder) NodeType(id NodeID) string { return b.nodes[id].Type }

// SetNodeType changes the entity type of an existing node.
func (b *Builder) SetNodeType(id NodeID, typ string) error {
	if id < 0 || int(id) >= len(b.nodes) {
		return fmt.Errorf("kb: SetNodeType: node %d out of range", id)
	}
	b.nodes[id].Type = typ
	return nil
}

// Label interns a relationship label, registering whether relationships
// with that label are directed. It returns an error if the label was
// previously registered with the opposite directedness.
func (b *Builder) Label(name string, directed bool) (LabelID, error) {
	if id, ok := b.labelIDs[name]; ok {
		if b.labelDirected[id] != directed {
			return InvalidLabel, labelConflict(name, b.labelDirected[id], directed)
		}
		return id, nil
	}
	if b.labelIDs == nil {
		b.labelIDs = make(map[string]LabelID)
	}
	id := LabelID(len(b.labels))
	b.labels = append(b.labels, name)
	b.labelDirected = append(b.labelDirected, directed)
	b.labelIDs[name] = id
	return id, nil
}

// MustLabel is Label but panics on directedness conflicts. Intended for
// graph construction in tests and generators where labels are static.
func (b *Builder) MustLabel(name string, directed bool) LabelID {
	id, err := b.Label(name, directed)
	if err != nil {
		panic(err)
	}
	return id
}

// LabelByName looks up a label ID by name, returning InvalidLabel if the
// label is unknown.
func (b *Builder) LabelByName(name string) LabelID {
	if id, ok := b.labelIDs[name]; ok {
		return id
	}
	return InvalidLabel
}

// AddEdge inserts an edge between two existing entities. The label's
// directedness decides whether the edge is directed (from→to) or
// undirected. Duplicate edges (same endpoints and label, respecting
// orientation) are ignored, making the graph a set-multigraph: multiple
// labels may connect the same pair but each (pair, label) occurs once.
// It reports whether the edge was newly inserted. Its duplicate check
// scans the lower-degree endpoint (has): O(min(deg(from), deg(to))) a
// call, at most 2·a(G)·|E| a graph of arboricity a(G) (Chiba & Nishizeki).
func (b *Builder) AddEdge(from, to NodeID, label LabelID) (bool, error) {
	if err := checkEdge("AddEdge", from, to, label, len(b.nodes), len(b.labels)); err != nil {
		return false, err
	}
	if from == to {
		return false, fmt.Errorf("kb: AddEdge: self-loop on node %d (%s) not supported", from, b.nodes[from].Name)
	}
	atFrom, atTo := halves(from, to, label, b.labelDirected[label])
	if b.has(from, to, atFrom, atTo) {
		return false, nil
	}
	b.adj[from] = append(b.adj[from], atFrom)
	b.adj[to] = append(b.adj[to], atTo)
	b.numEdges++
	return true, nil
}

// MustAddEdge is AddEdge but panics on error. Intended for static graph
// construction.
func (b *Builder) MustAddEdge(from, to NodeID, label LabelID) {
	if _, err := b.AddEdge(from, to, label); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge (from, to, label). For directed labels the
// orientation from→to is required; for undirected labels either
// orientation matches — mirroring Graph.HasEdge. It reports whether an
// edge was actually removed.
func (b *Builder) RemoveEdge(from, to NodeID, label LabelID) (bool, error) {
	if err := checkEdge("RemoveEdge", from, to, label, len(b.nodes), len(b.labels)); err != nil {
		return false, err
	}
	atFrom, atTo := halves(from, to, label, b.labelDirected[label])
	if !b.has(from, to, atFrom, atTo) {
		return false, nil
	}
	b.adj[from] = removeHalf(b.adj[from], atFrom)
	b.adj[to] = removeHalf(b.adj[to], atTo)
	b.numEdges--
	return true, nil
}

// has reports whether the edge with halves atFrom (at from) and atTo (at
// to) is stored: one list holds its half iff both do, so it scans the shorter.
func (b *Builder) has(from, to NodeID, atFrom, atTo HalfEdge) bool {
	if len(b.adj[from]) <= len(b.adj[to]) {
		return holds(b.adj[from], atFrom)
	}
	return holds(b.adj[to], atTo)
}

// holds scans list for he from the tail, the end a repeated edge is near.
func holds(list []HalfEdge, he HalfEdge) bool {
	for i := len(list) - 1; i >= 0; i-- {
		if x := &list[i]; x.To == he.To && x.Label == he.Label && x.Dir == he.Dir {
			return true
		}
	}
	return false
}

// removeHalf deletes the first occurrence of he from list, preserving
// the order of the remaining entries.
func removeHalf(list []HalfEdge, he HalfEdge) []HalfEdge {
	for i, x := range list {
		if x == he {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Neighbors returns the half-edges at a node in the order they were
// inserted. The slice is owned by the builder and must not be modified.
func (b *Builder) Neighbors(id NodeID) []HalfEdge { return b.adj[id] }

// Build returns the graph of everything added so far: the adjacency
// lists flattened into the CSR arrays (each span sorted, so the graph
// does not depend on insertion order), the per-label and entity-type
// indexes and the content fingerprint. The node and label tables move
// into the graph and the builder is left empty, so nothing writes to a
// built graph.
func (b *Builder) Build() *Graph {
	g := &Graph{
		nodes:         b.nodes,
		byName:        b.byName,
		labels:        b.labels,
		labelIDs:      b.labelIDs,
		labelDirected: b.labelDirected,
		numEdges:      b.numEdges,
	}
	g.buildCSR(b.adj)
	g.buildTypeIndex()
	g.xorFP = g.contentXor()
	g.fp = fpString(g.NumNodes(), g.NumEdges(), g.NumLabels(), g.xorFP)
	*b = Builder{}
	return g
}
