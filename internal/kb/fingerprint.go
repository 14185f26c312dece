package kb

import (
	"fmt"
	"hash/fnv"
)

// Fingerprint returns a 16-hex-digit content hash over the graph's
// nodes (name, type), labels (name, directedness) and edges. Two
// snapshots hash equal iff their content is equal, regardless of the
// order it was added in, so a swap that changed anything is observable
// through /stats without diffing graphs. An undirected edge is hashed
// with its lower node ID first, so the numbering of the nodes is part of
// the content. The value is computed when the graph is made.
//
// The hash is the XOR of one FNV-1a digest per content item, mixed with
// the (node, edge, label) counts. XOR makes it order-independent and
// incrementally maintainable: applying a delta updates the hash in
// O(delta) by XOR-ing each changed item in or out, which is how overlay
// generations (overlay.go) fingerprint without touching the whole
// graph. A compacted or rebuilt graph therefore reproduces the
// overlay's fingerprint exactly. This is a change detector, not a
// cryptographic commitment — like the sequential FNV-1a it replaces.
func (g *Graph) Fingerprint() string { return g.fp }

// contentXor folds every content item of the graph into the
// XOR-combinable hash. Items are unique — node names are unique, labels
// are interned once, and the edge set holds each (pair, label) once per
// orientation — so the fold is a well-defined set hash. The edges fold
// straight from the spans, with no edge list in between.
func (g *Graph) contentXor() uint64 {
	var x uint64
	for i := range g.nodes {
		x ^= nodeHash(g.nodes[i].Name, g.nodes[i].Type)
	}
	for i, name := range g.labels {
		x ^= labelHash(name, g.labelDirected[i])
	}
	for e := range g.allEdges() {
		x ^= edgeHash(g.nodes[e.From].Name, g.nodes[e.To].Name, g.labels[e.Label])
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
// first — the orientation Graph.Edges reports.
func edgeHash(fromName, toName, labelName string) uint64 {
	return itemHash('e', fromName, toName, labelName)
}
