// Package live manages versioned knowledge-base snapshots: a delta log
// of graph mutations parsed from the TSV record syntax, a builder that
// replays a delta onto a frozen snapshot to produce the next one, and
// an epoch-based Manager that atomically hot-swaps the active snapshot
// while in-flight readers keep their pinned version lock-free.
//
// The lifecycle follows one rule: **served graphs are immutable**. A
// delta is never applied in place — it is replayed onto a deep clone of
// the current graph, the clone is frozen, and the (graph, payload) pair
// is published with a single atomic pointer store. Readers that loaded
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
	// Compacted reports that the manager folded the overlay chain into
	// fresh CSR arrays while publishing this generation.
	Compacted bool
	// OverlayDepth is the overlay depth of the published snapshot
	// (0 after a compaction).
	OverlayDepth int
}

// Changed reports whether the application mutated anything.
func (s ApplyStats) Changed() bool {
	return s.NodesAdded+s.LabelsAdded+s.EdgesAdded+s.EdgesRemoved+s.TypesSet > 0
}

// ChangeSet is the touched-set of one delta application, the input to
// label-scoped cache carry-over (see the rex facade): which labels had
// edges added or removed, which nodes changed (edge endpoints, added
// entities, retyped entities), and whether any entity changed type.
type ChangeSet struct {
	// Labels holds every label with an edge added or removed. Cached
	// state whose pattern mentions none of these labels cannot observe
	// the edge changes.
	Labels map[kb.LabelID]struct{}
	// Nodes holds the endpoints of every changed edge plus added and
	// retyped entities. Both endpoints of every removed edge are here,
	// so a breadth-first ball grown from Nodes over the NEW graph also
	// covers every path that existed only in the old graph: any such
	// path crosses a removed edge, whose endpoints seed the ball.
	Nodes map[kb.NodeID]struct{}
	// Retyped reports that some entity's type changed. Type changes
	// shift pattern applicability globally (matching is type-scoped), so
	// carry-over is disabled wholesale when set.
	Retyped bool
}

// NewChangeSet returns an empty change set.
func NewChangeSet() *ChangeSet {
	return &ChangeSet{
		Labels: make(map[kb.LabelID]struct{}),
		Nodes:  make(map[kb.NodeID]struct{}),
	}
}

// BallReaches grows a breadth-first ball of the given radius from the
// change set's touched nodes over g (the new generation) and reports,
// pair by pair, whether either endpoint lies inside it. That is the only
// question carry-over has, so growth stops once every pair is reached —
// on a small-world graph the full ball is most of the graph. Membership
// is a bitmap over g's dense node IDs. If the ball would exceed maxNodes
// before that, it returns (nil, false) and the caller should treat every
// pair as reached. Radius 0 tests the touched nodes alone.
func (cs *ChangeSet) BallReaches(g *kb.Graph, radius, maxNodes int, pairs [][2]kb.NodeID) ([]bool, bool) {
	n := g.NumNodes()
	has := func(set []uint64, id kb.NodeID) bool { return set[id>>6]&(1<<(id&63)) != 0 }
	put := func(set []uint64, id kb.NodeID) { set[id>>6] |= 1 << (id & 63) }
	ball := make([]uint64, (n+63)/64)
	isEnd := make([]uint64, len(ball)) // some pair's endpoint: keeps the map off the growth path
	waiting := make(map[kb.NodeID][]int, 2*len(pairs))
	for i, p := range pairs {
		for _, id := range p {
			if id >= 0 && int(id) < n {
				put(isEnd, id)
				waiting[id] = append(waiting[id], i)
			}
		}
	}
	reached := make([]bool, len(pairs))
	open, size := len(pairs), 0
	var frontier []kb.NodeID
	// add puts an unseen node in the ball, failing at the cap.
	add := func(id kb.NodeID) bool {
		if size >= maxNodes {
			return false
		}
		size++
		put(ball, id)
		frontier = append(frontier, id)
		if has(isEnd, id) {
			for _, i := range waiting[id] {
				if !reached[i] {
					reached[i] = true
					open--
				}
			}
		}
		return true
	}
	for id := range cs.Nodes {
		if int(id) < n && !add(id) {
			return nil, false
		}
	}
	for hop := 0; hop < radius; hop++ {
		level := frontier
		frontier = nil
		for _, id := range level {
			if open == 0 {
				return reached, true
			}
			for _, he := range g.Neighbors(id) {
				if !has(ball, he.To) && !add(he.To) {
					return nil, false
				}
			}
		}
	}
	return reached, true
}

// mutator is the graph surface applyOp drives. The O(delta) overlay
// builder implements it; so can a plain clone, which lets a test replay
// a delta with identical record semantics and error text and compare
// the overlay against a Clone+Freeze rebuild.
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
// concurrent reads throughout. The returned ChangeSet records what the
// delta touched, for cache carry-over across the swap.
//
// Application is all-or-nothing: any failing record (unknown entity or
// label, directedness conflict, self-loop) aborts with an error
// identifying the source line, and no new graph or change set is
// produced. The stats returned alongside an error are the partial
// counts accumulated before the failing record and are undefined for
// any other purpose — callers must not publish or act on them.
//
// A delta whose records are all no-ops returns base itself (with
// zero-valued stats), not a new generation.
func (d *Delta) Apply(base *kb.Graph) (*kb.Graph, ApplyStats, *ChangeSet, error) {
	b, err := kb.NewOverlayBuilder(base)
	if err != nil {
		return nil, ApplyStats{}, nil, fmt.Errorf("live: %v", err)
	}
	var st ApplyStats
	cs := NewChangeSet()
	for _, op := range d.Ops {
		if err := applyOp(b, op, &st, cs); err != nil {
			return nil, st, nil, err
		}
	}
	if !st.Changed() {
		return base, st, cs, nil
	}
	g := b.Graph()
	st.Overlay = true
	st.OverlayDepth = g.Overlay().Depth
	return g, st, cs, nil
}

// applyOp replays one mutation onto the generation under construction,
// recording effective changes in both the stats and the change set.
func applyOp(g mutator, op Op, st *ApplyStats, cs *ChangeSet) error {
	switch op.Kind {
	case OpAddNode:
		known := g.NodeByName(op.Name) != kb.InvalidNode
		id := g.AddNode(op.Name, op.Type)
		if !known {
			st.NodesAdded++
			cs.Nodes[id] = struct{}{}
		}
	case OpAddLabel:
		known := g.LabelByName(op.Name) != kb.InvalidLabel
		if _, err := g.Label(op.Name, op.Directed); err != nil {
			return fmt.Errorf("live: line %d: %v", op.Line, err)
		}
		if !known {
			st.LabelsAdded++
			// A label first seen in this delta cannot appear in any
			// pattern cached against earlier generations, so it does not
			// join the touched-label set; edges using it touch their
			// endpoints as usual.
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
		cs.Nodes[id] = struct{}{}
		cs.Retyped = true
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
				cs.Labels[label] = struct{}{}
				cs.Nodes[from] = struct{}{}
				cs.Nodes[to] = struct{}{}
			}
		} else {
			removed, err := g.RemoveEdge(from, to, label)
			if err != nil {
				return fmt.Errorf("live: line %d: %v", op.Line, err)
			}
			if removed {
				st.EdgesRemoved++
				cs.Labels[label] = struct{}{}
				cs.Nodes[from] = struct{}{}
				cs.Nodes[to] = struct{}{}
			}
		}
	default:
		return fmt.Errorf("live: line %d: unhandled op kind %v", op.Line, op.Kind)
	}
	return nil
}
