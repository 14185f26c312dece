package kb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary serialisation. The TSV format is the interchange format; the
// binary format exists because a paper-scale knowledge base (hundreds of
// thousands of entities, >10^6 edges) loads an order of magnitude faster
// without string splitting.
//
// Version 3 serialises the frozen CSR layout directly — per-node degrees
// followed by the flat half-edge array in frozen (To, Label, Dir) span
// order — so loading is a streaming fill of the read-path arrays: no
// AddEdge bookkeeping, no edge-set map, no re-sorting. The content
// fingerprint is carried in the file (it is a pure function of the
// content that the loader verifies structurally), together with the
// XOR-combinable item hash behind it, so a loaded graph can serve as an
// overlay base with O(delta) incremental fingerprints. Layout, all
// integers unsigned varints:
//
//	magic "REXKB" version(3)
//	numLabels { nameLen name directed(1 byte) } ...
//	numNodes  { nameLen name typeLen type } ...
//	numEdges
//	degrees   numNodes × degree
//	halfEdges Σdegree × { to label dir(1 byte) }
//	fpLen fp
//	xorFP (8 bytes big-endian)
//
// Version 2 (the same layout without the trailing xorFP) and version 1
// (edge-list layout: numEdges × { from to label }) remain readable;
// their fingerprints are recomputed on load. Writers always emit
// version 3. Node and label references are the dense IDs assigned by
// declaration order, so graphs round-trip with identical IDs.

const binaryMagic = "REXKB"
const (
	binaryVersion1 = 1
	binaryVersion2 = 2
	binaryVersion  = 3
)

// WriteBinary serialises the graph in the binary format (version 3, the
// CSR layout). The graph is frozen first if it is not already — the
// frozen spans are the wire content. They are streamed node by node
// through Degree and Neighbors, so an overlay generation writes the same
// bytes as its compaction without building one.
func (g *Graph) WriteBinary(w io.Writer) error {
	g.Freeze()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeUvarint(binaryVersion); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(g.labels))); err != nil {
		return err
	}
	for i, name := range g.labels {
		if err := writeString(name); err != nil {
			return err
		}
		d := byte(0)
		if g.labelDirected[i] {
			d = 1
		}
		if err := bw.WriteByte(d); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(g.nodes))); err != nil {
		return err
	}
	for _, n := range g.nodes {
		if err := writeString(n.Name); err != nil {
			return err
		}
		if err := writeString(n.Type); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(g.numEdges)); err != nil {
		return err
	}
	for i := range g.nodes {
		if err := writeUvarint(uint64(g.Degree(NodeID(i)))); err != nil {
			return err
		}
	}
	for i := range g.nodes {
		for _, he := range g.Neighbors(NodeID(i)) {
			if err := writeUvarint(uint64(he.To)); err != nil {
				return err
			}
			if err := writeUvarint(uint64(he.Label)); err != nil {
				return err
			}
			if err := bw.WriteByte(byte(he.Dir)); err != nil {
				return err
			}
		}
	}
	if err := writeString(g.fp); err != nil {
		return err
	}
	var xorBuf [8]byte
	binary.BigEndian.PutUint64(xorBuf[:], g.xorFP)
	if _, err := bw.Write(xorBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// writeBinaryV1 emits the legacy edge-list layout; kept (unexported) so
// the compatibility path stays covered by tests.
func (g *Graph) writeBinaryV1(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeUvarint(binaryVersion1); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(g.labels))); err != nil {
		return err
	}
	for i, name := range g.labels {
		if err := writeString(name); err != nil {
			return err
		}
		d := byte(0)
		if g.labelDirected[i] {
			d = 1
		}
		if err := bw.WriteByte(d); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(g.nodes))); err != nil {
		return err
	}
	for _, n := range g.nodes {
		if err := writeString(n.Name); err != nil {
			return err
		}
		if err := writeString(n.Type); err != nil {
			return err
		}
	}
	edges := g.Edges()
	if err := writeUvarint(uint64(len(edges))); err != nil {
		return err
	}
	for _, e := range edges {
		if err := writeUvarint(uint64(e.From)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(e.To)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(e.Label)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a graph from the binary format and returns it
// frozen.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("kb: binary header: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("kb: not a REX binary knowledge base (magic %q)", magic)
	}
	readUvarint := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("kb: binary %s: %w", what, err)
		}
		return v, nil
	}
	readString := func(what string, maxLen uint64) (string, error) {
		n, err := readUvarint(what + " length")
		if err != nil {
			return "", err
		}
		if n > maxLen {
			return "", fmt.Errorf("kb: binary %s length %d exceeds limit %d", what, n, maxLen)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fmt.Errorf("kb: binary %s: %w", what, err)
		}
		return string(b), nil
	}
	version, err := readUvarint("version")
	if err != nil {
		return nil, err
	}
	if version != binaryVersion1 && version != binaryVersion2 && version != binaryVersion {
		return nil, fmt.Errorf("kb: unsupported binary version %d", version)
	}
	g := New()
	numLabels, err := readUvarint("label count")
	if err != nil {
		return nil, err
	}
	const maxName = 1 << 20
	for i := uint64(0); i < numLabels; i++ {
		name, err := readString("label name", maxName)
		if err != nil {
			return nil, err
		}
		d, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("kb: binary label direction: %w", err)
		}
		if _, err := g.Label(name, d == 1); err != nil {
			return nil, err
		}
	}
	numNodes, err := readUvarint("node count")
	if err != nil {
		return nil, err
	}
	g.nodes = make([]Node, 0, numNodes)
	g.byName = make(map[string]NodeID, numNodes)
	for i := uint64(0); i < numNodes; i++ {
		name, err := readString("node name", maxName)
		if err != nil {
			return nil, err
		}
		typ, err := readString("node type", maxName)
		if err != nil {
			return nil, err
		}
		if _, dup := g.byName[name]; dup {
			return nil, fmt.Errorf("kb: binary node %d: duplicate name %q", i, name)
		}
		id := NodeID(len(g.nodes))
		g.nodes = append(g.nodes, Node{ID: id, Name: name, Type: typ})
		g.byName[name] = id
	}
	numEdges, err := readUvarint("edge count")
	if err != nil {
		return nil, err
	}
	if version == binaryVersion1 {
		g.adj = make([][]HalfEdge, len(g.nodes))
		for i := uint64(0); i < numEdges; i++ {
			from, err := readUvarint("edge from")
			if err != nil {
				return nil, err
			}
			to, err := readUvarint("edge to")
			if err != nil {
				return nil, err
			}
			label, err := readUvarint("edge label")
			if err != nil {
				return nil, err
			}
			if _, err := g.AddEdge(NodeID(from), NodeID(to), LabelID(label)); err != nil {
				return nil, err
			}
		}
		g.Freeze()
		return g, nil
	}
	if err := g.readCSR(br, readUvarint, numEdges); err != nil {
		return nil, err
	}
	fp, err := readString("fingerprint", 64)
	if err != nil {
		return nil, err
	}
	g.numEdges = int(numEdges)
	g.frozen = true
	g.deriveLabelView()
	g.buildTypeIndex()
	if version == binaryVersion2 {
		// The legacy format carries a fingerprint computed by the old
		// sequential hash; recompute both hashes so the invariant
		// fp == fpString(counts, xorFP) holds for every frozen graph.
		g.xorFP = g.contentXor()
		g.fp = fpString(g.NumNodes(), g.NumEdges(), g.NumLabels(), g.xorFP)
		return g, nil
	}
	var xorBuf [8]byte
	if _, err := io.ReadFull(br, xorBuf[:]); err != nil {
		return nil, fmt.Errorf("kb: binary xor hash: %w", err)
	}
	g.fp = fp
	g.xorFP = binary.BigEndian.Uint64(xorBuf[:])
	return g, nil
}

// readCSR streams the version-2 degree and half-edge arrays into the CSR
// layout, validating references, orientation values, span sort order and
// the half-edge/edge-count invariant so a corrupt file cannot produce a
// structurally inconsistent graph.
func (g *Graph) readCSR(br *bufio.Reader, readUvarint func(string) (uint64, error), numEdges uint64) error {
	n := len(g.nodes)
	g.csrOff = make([]int32, n+1)
	total := uint64(0)
	for i := 0; i < n; i++ {
		d, err := readUvarint("node degree")
		if err != nil {
			return err
		}
		total += d
		if total >= uint64(1)<<31 {
			return fmt.Errorf("kb: binary degree sum overflows")
		}
		g.csrOff[i+1] = int32(total)
		g.maxDegree = max(g.maxDegree, int(d))
	}
	if total != 2*numEdges {
		return fmt.Errorf("kb: binary half-edge count %d does not match edge count %d", total, numEdges)
	}
	g.csr = make([]HalfEdge, total)
	for i := range g.csr {
		to, err := readUvarint("half-edge target")
		if err != nil {
			return err
		}
		label, err := readUvarint("half-edge label")
		if err != nil {
			return err
		}
		d, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("kb: binary half-edge dir: %w", err)
		}
		if to >= uint64(n) {
			return fmt.Errorf("kb: binary half-edge %d: target %d out of range", i, to)
		}
		if label >= uint64(len(g.labels)) {
			return fmt.Errorf("kb: binary half-edge %d: label %d out of range", i, label)
		}
		if Dir(d) != Out && Dir(d) != In && Dir(d) != Undirected {
			return fmt.Errorf("kb: binary half-edge %d: bad orientation %d", i, d)
		}
		g.csr[i] = HalfEdge{To: NodeID(to), Label: LabelID(label), Dir: Dir(d)}
	}
	for i := 0; i < n; i++ {
		span := g.csr[g.csrOff[i]:g.csrOff[i+1]]
		for j := 1; j < len(span); j++ {
			a, b := span[j-1], span[j]
			if a.To > b.To || (a.To == b.To && (a.Label > b.Label || (a.Label == b.Label && a.Dir >= b.Dir))) {
				return fmt.Errorf("kb: binary node %d: half-edge span not strictly (To, Label, Dir)-sorted", i)
			}
		}
		for _, he := range span {
			if he.To == NodeID(i) {
				return fmt.Errorf("kb: binary node %d: self-loop", i)
			}
		}
	}
	return nil
}

// SaveBinary writes the graph to a file in the binary format.
func (g *Graph) SaveBinary(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinary reads a graph from a binary-format file.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
