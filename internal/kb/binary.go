package kb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary serialisation. The TSV format is the interchange format; the
// binary format is what a checkpoint, a recovery and a replica catching up
// move, and it loads a paper-scale knowledge base (hundreds of thousands
// of entities, >10^6 edges) an order of magnitude faster than TSV.
//
// It serialises the frozen CSR layout directly — per-node degrees, then
// the flat half-edge array in frozen (To, Label, Dir) span order — so
// loading is one fill of the read-path arrays: no AddEdge bookkeeping, no
// edge-set map, no re-sorting. The content fingerprint travels with the
// XOR-combinable item hash behind it, so a loaded graph can serve as an
// overlay base with O(delta) incremental fingerprints. Layout, all
// integers unsigned varints:
//
//	magic "REXKB" version(3)
//	numLabels { nameLen name directed(1 byte, 0 or 1) } ...
//	numNodes  { nameLen name typeLen type } ...
//	numEdges
//	degrees   numNodes × degree
//	halfEdges Σdegree × { to label dir(1 byte) }
//	fpLen fp
//	xorFP (8 bytes big-endian)
//
// Node and label references are the dense IDs assigned by declaration
// order, so graphs round-trip with identical IDs. A reader holds the
// header to itself: fp must be the fingerprint the three counts and xorFP
// derive (the invariant of every frozen graph), and nothing may follow
// xorFP — two transfers concatenated into one spool are not a snapshot.
// Other versions are refused: 1 and 2 predate the journal, which only
// ever holds what the running binary wrote.

const (
	binaryMagic   = "REXKB"
	binaryVersion = 3
	maxNameLen    = 1 << 20

	// The encoder writes whenever it has gathered encodeWindow bytes, so
	// encoding a snapshot never holds a snapshot-sized slice (a checkpoint
	// runs inside the commit hook of every 64th delta). encodeSlack is room
	// for the item that crosses the line; a longer name grows the buffer.
	encodeWindow = 64 << 10
	encodeSlack  = 1 << 10
)

// WriteBinary serialises the graph in the binary format. The graph is
// frozen first if it is not already — the frozen spans are the wire
// content. They are read node by node through Degree and Neighbors, so
// an overlay generation writes the same bytes as its compaction without
// building one.
func (g *Graph) WriteBinary(w io.Writer) (err error) {
	g.Freeze()
	buf := append(make([]byte, 0, encodeWindow+encodeSlack), binaryMagic...)
	buf = appendUvarint(appendUvarint(buf, binaryVersion), uint64(len(g.labels)))
	for i, name := range g.labels {
		directed := byte(0)
		if g.labelDirected[i] {
			directed = 1
		}
		buf = append(appendString(buf, name), directed)
		if buf, err = drain(w, buf); err != nil {
			return err
		}
	}
	buf = appendUvarint(buf, uint64(len(g.nodes)))
	for _, n := range g.nodes {
		buf = appendString(appendString(buf, n.Name), n.Type)
		if buf, err = drain(w, buf); err != nil {
			return err
		}
	}
	buf = appendUvarint(buf, uint64(g.numEdges))
	for i := range g.nodes {
		buf = appendUvarint(buf, uint64(g.Degree(NodeID(i))))
		if buf, err = drain(w, buf); err != nil {
			return err
		}
	}
	for i := range g.nodes {
		for _, he := range g.Neighbors(NodeID(i)) {
			buf = appendUvarint(buf, uint64(he.To))
			buf = appendUvarint(buf, uint64(he.Label))
			buf = append(buf, byte(he.Dir))
			if buf, err = drain(w, buf); err != nil {
				return err
			}
		}
	}
	buf = appendString(buf, g.fp)
	buf = binary.BigEndian.AppendUint64(buf, g.xorFP)
	_, err = w.Write(buf)
	return err
}

// drain writes the buffer out once it has filled the window and returns
// the buffer to go on with.
func drain(w io.Writer, buf []byte) (_ []byte, err error) {
	if len(buf) >= encodeWindow {
		_, err = w.Write(buf)
		buf = buf[:0]
	}
	return buf, err
}

// appendUvarint is binary.AppendUvarint with the one-byte case — most
// degrees, every label and orientation — kept out of its loop.
func appendUvarint(buf []byte, v uint64) []byte {
	if v < 0x80 {
		return append(buf, byte(v))
	}
	return binary.AppendUvarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	return append(appendUvarint(buf, uint64(len(s))), s...)
}

// uvarint decodes the unsigned varint at b[p:] and returns it with the
// offset after it. When the bytes end first, or the value needs more than
// 63 bits (nothing the format holds does), the offset returned is past
// len(b) — and stays there through further calls, so a run of reads needs
// one check at its end. Small enough to inline into the loops below.
func uvarint(b []byte, p int) (v uint64, next int) {
	for shift := uint(0); shift < 63 && p < len(b); shift += 7 {
		c := b[p]
		p++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, p
		}
	}
	return 0, len(b) + 1
}

// cursor walks a snapshot's bytes. Its readers name the field they were
// after in the error, and a count is refused unless the bytes that remain
// could hold that many items — so nothing is allocated on a file's say-so.
type cursor struct {
	b []byte
	p int
}

func short(what string) error {
	return fmt.Errorf("kb: binary %s: truncated or malformed: %w", what, io.ErrUnexpectedEOF)
}

func (c *cursor) uvarint(what string) (uint64, error) {
	v, p := uvarint(c.b, c.p)
	if p > len(c.b) {
		return 0, short(what)
	}
	c.p = p
	return v, nil
}

// count reads the number of items in a section whose items take at least
// minBytes each.
func (c *cursor) count(what string, minBytes int) (int, error) {
	v, err := c.uvarint(what + " count")
	if err != nil {
		return 0, err
	}
	if rest := len(c.b) - c.p; v > uint64(rest/minBytes) {
		return 0, fmt.Errorf("kb: binary %s count %d exceeds what the remaining %d bytes can hold", what, v, rest)
	}
	return int(v), nil
}

// bytes reads a length-prefixed field without copying it.
func (c *cursor) bytes(what string, maxLen int) ([]byte, error) {
	n, err := c.uvarint(what)
	if err != nil {
		return nil, err
	}
	if n > uint64(maxLen) {
		return nil, fmt.Errorf("kb: binary %s length %d exceeds limit %d", what, n, maxLen)
	}
	if int(n) > len(c.b)-c.p {
		return nil, short(what)
	}
	c.p += int(n)
	return c.b[c.p-int(n) : c.p], nil
}

// ReadBinary parses a graph from the binary format and returns it
// frozen. The input is read to its end, into a buffer sized up front when
// the reader can say what it holds (a file, a bytes.Reader), and decoded
// from memory; nothing of it is retained.
//
// The structure is verified in full — every reference in range, every
// span strictly sorted, the degree sum against the edge count, the
// fingerprint against the header's counts and item hash. The item hash
// itself is taken from the file: recomputing it means hashing every name
// and edge, which costs more than the rest of the load, and a peer's
// snapshot is checked against the fingerprint the fleet expects anyway.
func ReadBinary(r io.Reader) (*Graph, error) {
	var size int64
	switch v := r.(type) {
	case *os.File:
		if st, err := v.Stat(); err == nil {
			size = st.Size()
		}
	case interface{ Len() int }:
		size = int64(v.Len())
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("kb: binary read: %w", err)
	}
	return decodeBinary(buf.Bytes())
}

func decodeBinary(b []byte) (*Graph, error) {
	if !bytes.HasPrefix(b, []byte(binaryMagic)) {
		return nil, fmt.Errorf("kb: not a REX binary knowledge base (magic %q)", b[:min(len(b), len(binaryMagic))])
	}
	c := &cursor{b: b, p: len(binaryMagic)}
	version, err := c.uvarint("version")
	if err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("kb: unsupported binary version %d (re-export from TSV)", version)
	}
	g := New()
	numLabels, err := c.count("label", 2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < numLabels; i++ {
		name, err := c.bytes("label name", maxNameLen)
		if err != nil {
			return nil, err
		}
		if c.p == len(b) || b[c.p] > 1 {
			return nil, fmt.Errorf("kb: binary label %d: missing or bad direction byte", i)
		}
		if _, err := g.Label(string(name), b[c.p] == 1); err != nil {
			return nil, err
		}
		if len(g.labels) != i+1 {
			return nil, fmt.Errorf("kb: binary label %d: duplicate name %q", i, name)
		}
		c.p++
	}
	if err := g.readNodes(c); err != nil {
		return nil, err
	}
	numEdges, err := c.uvarint("edge count")
	if err != nil {
		return nil, err
	}
	if err := g.readCSR(c, numEdges); err != nil {
		return nil, err
	}
	fp, err := c.bytes("fingerprint", 64)
	if err != nil {
		return nil, err
	}
	if len(b)-c.p < 8 {
		return nil, short("item hash")
	}
	g.xorFP = binary.BigEndian.Uint64(b[c.p:])
	if rest := len(b) - c.p - 8; rest != 0 {
		return nil, fmt.Errorf("kb: binary: %d bytes after the end of the snapshot", rest)
	}
	g.numEdges = int(numEdges)
	g.fp = fpString(g.NumNodes(), g.NumEdges(), g.NumLabels(), g.xorFP)
	if string(fp) != g.fp {
		return nil, fmt.Errorf("kb: binary fingerprint %q does not match the header's counts and item hash (%s)", fp, g.fp)
	}
	g.frozen = true
	g.deriveLabelView()
	g.buildTypeIndex()
	return g, nil
}

// readNodes reads the node section. It is walked once to find its end and
// copied into one string; every name and type is a substring of it, so a
// load allocates one string however many entities there are.
func (g *Graph) readNodes(c *cursor) error {
	n, err := c.count("node", 2)
	if err != nil {
		return err
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("kb: binary node count %d exceeds the ID space", n)
	}
	start := c.p
	for i := 0; i < n; i++ {
		if _, err := c.bytes("node name", maxNameLen); err != nil {
			return err
		}
		if _, err := c.bytes("node type", maxNameLen); err != nil {
			return err
		}
	}
	sec := c.b[start:c.p]
	text := string(sec)
	// carve returns the length-prefixed field at sec[p:], already checked
	// by the walk above, as a substring of text.
	carve := func(p int) (string, int) {
		l, p := uvarint(sec, p)
		return text[p : p+int(l)], p + int(l)
	}
	g.nodes = make([]Node, n)
	g.byName = make(map[string]NodeID, n)
	p := 0
	for i := range g.nodes {
		nd := &g.nodes[i]
		nd.ID = NodeID(i)
		nd.Name, p = carve(p)
		nd.Type, p = carve(p)
		if g.byName[nd.Name] = nd.ID; len(g.byName) != i+1 {
			return fmt.Errorf("kb: binary node %d: duplicate name %q", i, nd.Name)
		}
	}
	return nil
}

// readCSR fills the CSR arrays from the degree and half-edge sections in
// one pass, validating as it goes — references, orientation values,
// strict (To, Label, Dir) order within a span, no self-loop, and the
// half-edge/edge-count invariant — so a corrupt file cannot produce a
// structurally inconsistent graph.
func (g *Graph) readCSR(c *cursor, numEdges uint64) error {
	n := len(g.nodes) // backed by the node section's bytes, so safe to size from
	b := c.b
	g.csrOff = make([]int32, n+1)
	total, p := uint64(0), c.p
	for i := 0; i < n; i++ {
		var d uint64
		d, p = uvarint(b, p)
		// A degree read past the end is 0, so the sum stays bounded.
		if total += d; total >= 1<<31 {
			return fmt.Errorf("kb: binary degree sum overflows")
		}
		g.csrOff[i+1] = int32(total)
		g.maxDegree = max(g.maxDegree, int(d))
	}
	if p > len(b) {
		return short("node degrees")
	}
	if total != 2*numEdges {
		return fmt.Errorf("kb: binary half-edge count %d does not match edge count %d", total, numEdges)
	}
	if rest := len(b) - p; total > uint64(rest/3) {
		return fmt.Errorf("kb: binary half-edge count %d exceeds what the remaining %d bytes can hold", total, rest)
	}
	g.csr = make([]HalfEdge, total)
	numLabels := uint64(len(g.labels))
	for i := 0; i < n; i++ {
		span := g.csr[g.csrOff[i]:g.csrOff[i+1]]
		// (To, Label, Dir) packed 31+31+2 bits, plus one: strictly
		// ascending keys are a strictly sorted span, and 0 is below all.
		prev := uint64(0)
		for j := range span {
			to, q := uvarint(b, p)
			label, q := uvarint(b, q)
			if q >= len(b) {
				return short("half-edges")
			}
			d := b[q]
			p = q + 1
			if to >= uint64(n) {
				return fmt.Errorf("kb: binary half-edge %d: target %d out of range", int(g.csrOff[i])+j, to)
			}
			if label >= numLabels {
				return fmt.Errorf("kb: binary half-edge %d: label %d out of range", int(g.csrOff[i])+j, label)
			}
			if d > byte(Undirected) {
				return fmt.Errorf("kb: binary half-edge %d: bad orientation %d", int(g.csrOff[i])+j, d)
			}
			key := (to<<33 | label<<2 | uint64(d)) + 1
			if key <= prev {
				return fmt.Errorf("kb: binary node %d: half-edge span not strictly (To, Label, Dir)-sorted", i)
			}
			if to == uint64(i) {
				return fmt.Errorf("kb: binary node %d: self-loop", i)
			}
			prev = key
			span[j] = HalfEdge{To: NodeID(to), Label: LabelID(label), Dir: Dir(d)}
		}
	}
	c.p = p
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
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeBinary(data)
}
