// Package live manages versioned knowledge-base snapshots: a delta log
// of graph mutations parsed from the TSV record syntax, a builder that
// replays a delta onto a snapshot to produce the next one, and
// an epoch-based Manager that atomically hot-swaps the active snapshot
// while in-flight readers keep their pinned version lock-free.
//
// The lifecycle follows one rule: **served graphs are immutable** — a
// kb.Graph has no mutator. A delta is replayed through a
// kb.OverlayBuilder into a new graph that shares the current one's
// arrays, and the (graph, payload) pair is published with a single
// atomic pointer store. Readers that loaded
// the previous snapshot finish on it undisturbed; the old version is
// garbage-collected when the last pinned reader drops it.
package live

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"rex/internal/kb"
)

// The delta wire format extends the knowledge-base TSV record syntax
// (internal/kb/tsv.go) with mutation records, so an extraction pipeline
// can stream both initial loads and incremental updates in one dialect:
//
//	# comment
//	node\t<name>\t<type>           add an entity (existing: no-op)
//	label\t<name>\t<D|U>           register a relationship label
//	edge\t<from>\t<to>\t<label>    add an edge (duplicate: no-op)
//	settype\t<name>\t<type>        change an entity's type
//	deledge\t<from>\t<to>\t<label> remove an edge (absent: no-op)
//
// Records are replayed in order, so a delta may introduce a node and
// connect it on the next line. Edge records may reference entities and
// labels from the base snapshot or from earlier records of the same
// delta; unknown references are errors that abort the whole delta —
// application is all-or-nothing.

// OpKind discriminates delta mutations.
type OpKind uint8

// The delta mutation kinds, in record-syntax order.
const (
	OpAddNode OpKind = iota
	OpAddLabel
	OpAddEdge
	OpSetType
	OpDelEdge
)

// String returns the record keyword for the kind.
func (k OpKind) String() string {
	switch k {
	case OpAddNode:
		return "node"
	case OpAddLabel:
		return "label"
	case OpAddEdge:
		return "edge"
	case OpSetType:
		return "settype"
	case OpDelEdge:
		return "deledge"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one parsed mutation. Field use depends on Kind: node and
// settype records use Name+Type, label records use Name+Directed, edge
// and deledge records use From+To+Label.
type Op struct {
	Kind     OpKind
	Line     int // 1-based source line, for error reporting
	Name     string
	Type     string
	Directed bool
	From     string
	To       string
	Label    string
}

// Delta is an ordered log of graph mutations.
type Delta struct {
	Ops []Op
}

// maxDeltaLine bounds one record line of the wire format, newline
// included.
const maxDeltaLine = 1 << 20

// ParseDelta reads a mutation log in the delta wire format. The input
// is streamed line by line; one oversized or malformed record fails the
// whole parse.
func ParseDelta(r io.Reader) (*Delta, error) {
	d := &Delta{}
	sc := bufio.NewScanner(r)
	// No buffer up front: the scanner grows its own to maxDeltaLine on
	// demand. A delta is a few kilobytes and one is parsed for every write
	// and every replayed WAL record, so a buffer allocated at the limit
	// would be most of the write path's garbage and a collection every
	// few deltas.
	sc.Buffer(nil, maxDeltaLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The scanner drops one carriage return before the newline, and a
		// re-parse of the wire encoding would drop a second one: a record
		// whose last field ends in '\r' could not be replayed as accepted.
		if strings.HasSuffix(line, "\r") {
			return nil, fmt.Errorf("live: line %d: record ends in a carriage return", lineNo)
		}
		fields := strings.Split(line, "\t")
		op := Op{Line: lineNo}
		switch fields[0] {
		case "node", "settype":
			if len(fields) != 3 {
				return nil, fmt.Errorf("live: line %d: %s wants 2 fields, got %d", lineNo, fields[0], len(fields)-1)
			}
			op.Kind = OpAddNode
			if fields[0] == "settype" {
				op.Kind = OpSetType
			}
			op.Name, op.Type = fields[1], fields[2]
		case "label":
			if len(fields) != 3 {
				return nil, fmt.Errorf("live: line %d: label wants 2 fields, got %d", lineNo, len(fields)-1)
			}
			op.Kind = OpAddLabel
			op.Name = fields[1]
			switch fields[2] {
			case "D":
				op.Directed = true
			case "U":
				op.Directed = false
			default:
				return nil, fmt.Errorf("live: line %d: label direction must be D or U, got %q", lineNo, fields[2])
			}
		case "edge", "deledge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("live: line %d: %s wants 3 fields, got %d", lineNo, fields[0], len(fields)-1)
			}
			op.Kind = OpAddEdge
			if fields[0] == "deledge" {
				op.Kind = OpDelEdge
			}
			op.From, op.To, op.Label = fields[1], fields[2], fields[3]
		default:
			return nil, fmt.Errorf("live: line %d: unknown record type %q", lineNo, fields[0])
		}
		d.Ops = append(d.Ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// AppendWire appends the delta's canonical wire encoding to b: one
// record line per op, in order, in the same TSV record syntax ParseDelta
// reads. Comments and blank lines of the original input are not
// preserved — the encoding is the parsed mutation log, nothing else —
// so ParseDelta(AppendWire(d)) reproduces d exactly. This is the WAL
// payload format: what is replayed after a crash is byte-for-byte what
// the wire parser accepted before it.
func (d *Delta) AppendWire(b []byte) []byte {
	for _, op := range d.Ops {
		switch op.Kind {
		case OpAddNode, OpSetType:
			b = append(b, op.Kind.String()...)
			b = append(b, '\t')
			b = append(b, op.Name...)
			b = append(b, '\t')
			b = append(b, op.Type...)
		case OpAddLabel:
			b = append(b, "label\t"...)
			b = append(b, op.Name...)
			if op.Directed {
				b = append(b, "\tD"...)
			} else {
				b = append(b, "\tU"...)
			}
		case OpAddEdge, OpDelEdge:
			b = append(b, op.Kind.String()...)
			b = append(b, '\t')
			b = append(b, op.From...)
			b = append(b, '\t')
			b = append(b, op.To...)
			b = append(b, '\t')
			b = append(b, op.Label...)
		}
		b = append(b, '\n')
	}
	return b
}

// ApplyStats counts the effective mutations of one delta application.
// No-op records (re-adding an existing node, label or edge, deleting an
// absent edge, setting a type to its current value) parse and apply
// cleanly but are not counted, so the stats report what actually
// changed — and a delta that changes nothing publishes nothing (see
// Manager.ApplyDelta).
type ApplyStats struct {
	NodesAdded   int
	LabelsAdded  int
	EdgesAdded   int
	EdgesRemoved int
	TypesSet     int

	// Overlay reports that Apply built a new generation as an O(delta)
	// overlay over the previous snapshot; it is false when the delta
	// changed nothing and no generation was built.
	Overlay bool
	// Compacted reports that the generation this delta built crossed
	// the manager's CompactRatio and was folded into fresh CSR arrays
	// before it was published: the published snapshot is a plain graph.
	Compacted bool
	// OverlayDepth is the overlay depth of the published snapshot: the
	// deltas stacked over its base arrays, 0 when Compacted, else at
	// least 1.
	OverlayDepth int
}

// Changed reports whether the application mutated anything.
func (s ApplyStats) Changed() bool {
	return s.NodesAdded+s.LabelsAdded+s.EdgesAdded+s.EdgesRemoved+s.TypesSet > 0
}

// ChangeSet records nothing: Apply returns an empty one, kept for
// callers compiled against Apply's four results.
type ChangeSet struct{}

// mutator is the graph surface applyOp drives. The O(delta) overlay
// builder implements it, and so does kb.Builder, which lets a test
// replay a delta onto a builder seeded from the source graph, with
// identical record semantics and error text, and compare the overlay
// against that rebuild.
type mutator interface {
	NodeByName(string) kb.NodeID
	LabelByName(string) kb.LabelID
	NodeType(kb.NodeID) string
	AddNode(string, string) kb.NodeID
	Label(string, bool) (kb.LabelID, error)
	AddEdge(kb.NodeID, kb.NodeID, kb.LabelID) (bool, error)
	RemoveEdge(kb.NodeID, kb.NodeID, kb.LabelID) (bool, error)
	SetNodeType(kb.NodeID, string) error
}

// Apply replays the delta as an overlay generation over base in
// O(delta · degree): base's CSR arrays are shared, only touched nodes
// get materialised spans, and base is never mutated — it keeps serving
// concurrent reads throughout. The third result is always an empty
// ChangeSet.
//
// Application is all-or-nothing: any failing record (unknown entity or
// label, directedness conflict, self-loop) aborts with an error
// identifying the source line, and no new graph is produced. The stats
// returned alongside an error are the partial counts accumulated before
// the failing record and are undefined for any other purpose — callers
// must not publish or act on them.
//
// A delta whose records are all no-ops returns base itself (with
// zero-valued stats), not a new generation.
func (d *Delta) Apply(base *kb.Graph) (*kb.Graph, ApplyStats, *ChangeSet, error) {
	b, err := kb.NewOverlayBuilder(base)
	if err != nil {
		return nil, ApplyStats{}, nil, fmt.Errorf("live: %v", err)
	}
	var st ApplyStats
	for _, op := range d.Ops {
		if err := applyOp(b, op, &st); err != nil {
			return nil, st, nil, err
		}
	}
	if !st.Changed() {
		return base, st, &ChangeSet{}, nil
	}
	g := b.Graph()
	st.Overlay = true
	st.OverlayDepth = g.Overlay().Depth
	return g, st, &ChangeSet{}, nil
}

// applyOp replays one mutation onto the generation under construction,
// counting effective changes in the stats.
func applyOp(g mutator, op Op, st *ApplyStats) error {
	switch op.Kind {
	case OpAddNode:
		known := g.NodeByName(op.Name) != kb.InvalidNode
		g.AddNode(op.Name, op.Type)
		if !known {
			st.NodesAdded++
		}
	case OpAddLabel:
		known := g.LabelByName(op.Name) != kb.InvalidLabel
		if _, err := g.Label(op.Name, op.Directed); err != nil {
			return fmt.Errorf("live: line %d: %v", op.Line, err)
		}
		if !known {
			st.LabelsAdded++
		}
	case OpSetType:
		id := g.NodeByName(op.Name)
		if id == kb.InvalidNode {
			return fmt.Errorf("live: line %d: settype: unknown node %q", op.Line, op.Name)
		}
		if g.NodeType(id) == op.Type {
			return nil // already that type: no-op, not counted
		}
		if err := g.SetNodeType(id, op.Type); err != nil {
			return fmt.Errorf("live: line %d: %v", op.Line, err)
		}
		st.TypesSet++
	case OpAddEdge, OpDelEdge:
		from := g.NodeByName(op.From)
		if from == kb.InvalidNode {
			return fmt.Errorf("live: line %d: %s: unknown node %q", op.Line, op.Kind, op.From)
		}
		to := g.NodeByName(op.To)
		if to == kb.InvalidNode {
			return fmt.Errorf("live: line %d: %s: unknown node %q", op.Line, op.Kind, op.To)
		}
		label := g.LabelByName(op.Label)
		if label == kb.InvalidLabel {
			return fmt.Errorf("live: line %d: %s: unknown label %q", op.Line, op.Kind, op.Label)
		}
		if op.Kind == OpAddEdge {
			added, err := g.AddEdge(from, to, label)
			if err != nil {
				return fmt.Errorf("live: line %d: %v", op.Line, err)
			}
			if added {
				st.EdgesAdded++
			}
		} else {
			removed, err := g.RemoveEdge(from, to, label)
			if err != nil {
				return fmt.Errorf("live: line %d: %v", op.Line, err)
			}
			if removed {
				st.EdgesRemoved++
			}
		}
	default:
		return fmt.Errorf("live: line %d: unhandled op kind %v", op.Line, op.Kind)
	}
	return nil
}
