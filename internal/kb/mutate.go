package kb

import (
	"fmt"
	"hash/fnv"
)

// This file holds the mutation and snapshot primitives behind the live
// knowledge-base subsystem (internal/live): deep cloning, edge removal,
// entity retyping and content fingerprinting. The copy-apply-swap
// lifecycle never mutates a served graph — deltas are replayed onto a
// Clone, which is then frozen and atomically swapped in.

// Clone returns a deep, unfrozen copy of the graph sharing no mutable
// state with the original. The original may keep serving reads while
// the clone is mutated; call Freeze on the clone before querying it
// concurrently.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:    append([]Node(nil), g.nodes...),
		numEdges: g.numEdges,
	}
	c.byName = g.nameIndex()
	c.labels = append([]string(nil), g.labels...)
	c.labelDirected = append([]bool(nil), g.labelDirected...)
	c.labelIDs = make(map[string]LabelID, len(g.labelIDs))
	for k, v := range g.labelIDs {
		c.labelIDs[k] = v
	}
	if g.frozen {
		// A frozen graph holds only the CSR arrays; materialise the
		// clone's build-time state from them. The original stays frozen
		// and keeps serving reads.
		c.adj = g.adjFromCSR()
		c.edgeSet = edgeSetFromAdj(c.adj)
		return c
	}
	c.adj = make([][]HalfEdge, len(g.adj))
	for i := range g.adj {
		c.adj[i] = append([]HalfEdge(nil), g.adj[i]...)
	}
	c.edgeSet = make(map[edgeKey]struct{}, len(g.edgeSet))
	for k := range g.edgeSet {
		c.edgeSet[k] = struct{}{}
	}
	return c
}

// SetNodeType changes the entity type of an existing node. It unfreezes
// the graph; the entity-type index is rebuilt on the next Freeze.
func (g *Graph) SetNodeType(id NodeID, typ string) error {
	if id < 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("kb: SetNodeType: node %d out of range", id)
	}
	g.thaw()
	g.nodes[id].Type = typ
	return nil
}

// RemoveEdge deletes the edge (from, to, label). For directed labels the
// orientation from→to is required; for undirected labels either
// orientation matches — mirroring HasEdge. It reports whether an edge
// was actually removed and unfreezes the graph when it was.
func (g *Graph) RemoveEdge(from, to NodeID, label LabelID) (bool, error) {
	if int(from) >= len(g.nodes) || from < 0 {
		return false, fmt.Errorf("kb: RemoveEdge: from node %d out of range", from)
	}
	if int(to) >= len(g.nodes) || to < 0 {
		return false, fmt.Errorf("kb: RemoveEdge: to node %d out of range", to)
	}
	if int(label) >= len(g.labels) || label < 0 {
		return false, fmt.Errorf("kb: RemoveEdge: label %d out of range", label)
	}
	directed := g.labelDirected[label]
	key := edgeKey{from, to, label}
	if !directed && from > to {
		key = edgeKey{to, from, label}
	}
	// Existence check before thawing: a miss must not unfreeze the graph.
	if !g.HasEdge(from, to, label) {
		return false, nil
	}
	g.thaw()
	delete(g.edgeSet, key)
	if directed {
		g.adj[from] = removeHalf(g.adj[from], HalfEdge{To: to, Label: label, Dir: Out})
		g.adj[to] = removeHalf(g.adj[to], HalfEdge{To: from, Label: label, Dir: In})
	} else {
		g.adj[from] = removeHalf(g.adj[from], HalfEdge{To: to, Label: label, Dir: Undirected})
		g.adj[to] = removeHalf(g.adj[to], HalfEdge{To: from, Label: label, Dir: Undirected})
	}
	g.numEdges--
	return true, nil
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

// Fingerprint returns a 16-hex-digit content hash over the graph's
// nodes (name, type), labels (name, directedness) and edges. Two
// snapshots hash equal iff their content is equal, regardless of how
// they were built, so a swap that changed anything is observable
// through /stats without diffing graphs. On a frozen graph the value is
// precomputed by Freeze; on an unfrozen graph it is computed on the
// spot.
//
// The hash is the XOR of one FNV-1a digest per content item, mixed with
// the (node, edge, label) counts. XOR makes it order-independent and
// incrementally maintainable: applying a delta updates the hash in
// O(delta) by XOR-ing each changed item in or out, which is how overlay
// generations (overlay.go) fingerprint without touching the whole
// graph. A compacted or re-frozen graph therefore reproduces the
// overlay's fingerprint exactly. This is a change detector, not a
// cryptographic commitment — like the sequential FNV-1a it replaces.
func (g *Graph) Fingerprint() string {
	if g.frozen {
		return g.fp
	}
	return g.fingerprint()
}

func (g *Graph) fingerprint() string {
	return fpString(g.NumNodes(), g.NumEdges(), g.NumLabels(), g.contentXor())
}

// contentXor folds every content item of the graph into the
// XOR-combinable hash. Items are unique — node names are unique, labels
// are interned once, and the edge set holds each (pair, label) once per
// orientation — so the fold is a well-defined set hash.
func (g *Graph) contentXor() uint64 {
	var x uint64
	for i := range g.nodes {
		x ^= nodeHash(g.nodes[i].Name, g.nodes[i].Type)
	}
	for i, name := range g.labels {
		x ^= labelHash(name, g.labelDirected[i])
	}
	for _, e := range g.Edges() {
		x ^= edgeHash(g.NodeName(e.From), g.NodeName(e.To), g.LabelName(e.Label))
	}
	return x
}

// fpString renders the served fingerprint: the item XOR mixed with the
// content counts through one final FNV-1a pass.
func fpString(nodes, edges, labels int, xor uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%d\x00%d\x00%016x", nodes, edges, labels, xor)
	return fmt.Sprintf("%016x", h.Sum64())
}

// itemHash is the FNV-1a digest of one tagged content item. The tag
// byte keeps node, label and edge encodings disjoint; parts are
// NUL-terminated like the legacy sequential encoding.
func itemHash(tag byte, parts ...string) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	mix(tag)
	mix(0)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			mix(p[i])
		}
		mix(0)
	}
	return h
}

func nodeHash(name, typ string) uint64 { return itemHash('n', name, typ) }

func labelHash(name string, directed bool) uint64 {
	if directed {
		return itemHash('l', name, "true")
	}
	return itemHash('l', name, "false")
}

// edgeHash digests one edge by endpoint names in canonical orientation:
// directed edges as stored, undirected edges with the lower node ID
// first — the order Graph.Edges reports.
func edgeHash(fromName, toName, labelName string) uint64 {
	return itemHash('e', fromName, toName, labelName)
}
