package kb

import (
	"fmt"
	"maps"
	"runtime"
	"sort"
)

// This file implements overlay generations: frozen graphs that layer a
// small per-node patch set over an immutable frozen base, so a delta of
// d operations produces the next queryable snapshot in O(d · degree)
// instead of the O(graph) Clone+Freeze rebuild.
//
// An overlay generation is a real *Graph — every read accessor answers
// byte-identically to a full re-freeze of the same content (property
// tested) — but its CSR arrays are aliased from the base. Only nodes
// whose adjacency actually changed get materialised spans, looked up
// through a sparse page table. Stacked deltas produce stacked overlay
// generations over the same base until Compact folds everything back
// into a plain graph with fresh CSR arrays.
//
// Overlay generations follow the same immutability rule as every frozen
// graph: after the builder returns, the generation is never mutated and
// is safe for unlimited concurrent readers. Mutating it through the
// ordinary mutators detaches it from the base first (see thaw), so the
// base keeps serving other generations undisturbed.

const (
	ovPageShift = 9 // 512 nodes per page: a touched page costs 4KB
	ovPageSize  = 1 << ovPageShift
	ovPageMask  = ovPageSize - 1

	// compactYieldEvery is how many half-edges Compact copies between two
	// yields of its processor: about 50 µs of copying.
	compactYieldEvery = 1 << 14
)

// ovNode is one materialised overlay node: its full half-edge span in
// both CSR sort orders, replacing the base spans entirely. An empty
// ovNode (all fields nil) represents a node with no edges — every node
// added after the base freeze has one, so reads never index the base
// offset arrays out of range.
type ovNode struct {
	csr      []HalfEdge  // sorted by (To, Label, Dir), like Graph.csr spans
	labelCSR []HalfEdge  // sorted by (Label, To, Dir), like Graph.labelCSR spans
	spans    []labelSpan // per-label runs; offsets relative to labelCSR
}

// ovPage is one fixed-size page of the overlay node directory.
type ovPage []*ovNode

// overlay is the patch set of one overlay generation. All fields are
// immutable after the builder returns; pages untouched by later
// generations are shared between them.
type overlay struct {
	base  *Graph // plain frozen root whose CSR arrays the generation aliases
	depth int    // stacked overlay generations since the last plain freeze

	pages []ovPage // node directory, indexed by NodeID >> ovPageShift

	// Cumulative node bookkeeping since the base freeze. addedByName
	// complements the base's shared name maps; retyped maps base nodes
	// whose current type differs from their base type (so base type
	// lists can be filtered on read); extraByType lists, per type and in
	// ID order, the added and retyped-in nodes missing from the base
	// type lists.
	addedByName map[string]NodeID
	retyped     map[NodeID]string
	extraByType map[string][]NodeID

	halfEdges int // half-edges materialised across all ovNodes
}

// node returns the materialised overlay node for id, or nil when the
// base spans are authoritative.
func (ov *overlay) node(id NodeID) *ovNode {
	p := ov.pages[uint32(id)>>ovPageShift]
	if p == nil {
		return nil
	}
	return p[uint32(id)&ovPageMask]
}

// labeled is NeighborsLabeled over a materialised node: binary search
// the per-label runs, exactly like the base span search.
func (on *ovNode) labeled(label LabelID) []HalfEdge {
	spans := on.spans
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
		return on.labelCSR[sp.off : sp.off+sp.n]
	}
	return nil
}

// nodesOfType answers NodesOfType for an overlay generation: the base
// type list filtered by retypes, merged in ID order with the
// generation's extra list.
func (ov *overlay) nodesOfType(typ string) []NodeID {
	baseList := ov.base.byType[typ]
	extra := ov.extraByType[typ]
	out := make([]NodeID, 0, len(baseList)+len(extra))
	for _, id := range baseList {
		// A base node present in retyped has moved to another type: if
		// its current type were typ it would not appear in this base
		// list at all.
		if _, moved := ov.retyped[id]; moved {
			continue
		}
		for len(extra) > 0 && extra[0] < id {
			out = append(out, extra[0])
			extra = extra[1:]
		}
		out = append(out, id)
	}
	return append(out, extra...)
}

// OverlayInfo describes the overlay state of a frozen graph, for
// compaction policy and observability. A plain graph reports the zero
// value.
type OverlayInfo struct {
	// Depth counts stacked overlay generations over the plain base
	// (0 for a plain graph, 1 after the first O(delta) apply, ...).
	Depth int
	// HalfEdges counts the half-edges materialised in overlay nodes —
	// the memory the overlay costs on top of the shared base arrays.
	HalfEdges int
	// Ratio is HalfEdges relative to the base CSR size; compaction
	// triggers when it grows past a threshold.
	Ratio float64
}

// Overlay reports the graph's overlay state.
func (g *Graph) Overlay() OverlayInfo {
	if g.ov == nil {
		return OverlayInfo{}
	}
	info := OverlayInfo{Depth: g.ov.depth, HalfEdges: g.ov.halfEdges}
	if b := len(g.ov.base.csr); b > 0 {
		info.Ratio = float64(info.HalfEdges) / float64(b)
	} else if info.HalfEdges > 0 {
		info.Ratio = 1
	}
	return info
}

// Compact folds an overlay generation into a plain frozen graph with
// fresh CSR arrays, by copying rather than rebuilding. Every overlay node
// already holds its span in both sort orders with its label runs
// (buildNodeLabelView makes them byte-identical to a freeze), and every
// other node's are sitting in the base arrays, so each maximal run of
// untouched base nodes is three block copies with rebased offsets and
// each overlay node appends its own slices: no per-edge work, no sort,
// no label view derived. The type index shares the base's list for every
// type whose membership the overlay left alone — lists are never written
// after they are built: NodesOfType copies and Freeze rebuilds into a
// fresh map. The node table is the overlay generation's own, aliased
// (no frozen graph writes to it), and so is the base's name index, with
// the names added since it was built in a second map (compactNames).
// Fingerprint and maximum degree carry over unchanged. What remains
// proportional to the graph is the block copying. A plain graph is
// returned unchanged.
func (g *Graph) Compact() *Graph {
	if g.ov == nil || !g.frozen {
		return g
	}
	ov, base := g.ov, g.ov.base
	n, nBase := len(g.nodes), len(base.nodes)
	c := &Graph{
		nodes:         g.nodes,
		labels:        append([]string(nil), g.labels...),
		labelDirected: append([]bool(nil), g.labelDirected...),
		numEdges:      g.numEdges,
		frozen:        true,
		xorFP:         g.xorFP,
		fp:            g.fp,
		maxDegree:     g.maxDegree,
		csrOff:        make([]int32, n+1),
		csr:           make([]HalfEdge, 0, 2*g.numEdges),
		labelCSR:      make([]HalfEdge, 0, 2*g.numEdges),
		spanOff:       make([]int32, n+1),
		spans:         make([]labelSpan, 0, len(base.spans)+len(base.spans)/16),
	}
	c.labelIDs = make(map[string]LabelID, len(g.labelIDs))
	for k, v := range g.labelIDs {
		c.labelIDs[k] = v
	}
	c.byName, c.addedNames = compactNames(c, base, ov.addedByName)

	// The copying gives up the processor every compactYieldEvery
	// half-edges. The live manager compacts on a goroutine of its own,
	// and when no CPU is idle the scheduler may run it on the processor a
	// writer was just preempted from; the writer then waits for the next
	// yield instead of for the whole compaction.
	copied := 0
	yield := func(n int) {
		if copied += n; copied >= compactYieldEvery {
			copied = 0
			runtime.Gosched()
		}
	}
	// copyRun appends the untouched base nodes [a, b) a page of nodes at
	// a time, one block per array, shifting their offsets to where the
	// block lands.
	copyRun := func(a, b int) {
		for a < b {
			e := min(b, a+ovPageSize)
			lo, hi := base.csrOff[a], base.csrOff[e]
			slo, shi := base.spanOff[a], base.spanOff[e]
			spanAt := len(c.spans)
			shift, spanShift := int32(len(c.csr))-lo, int32(spanAt)-slo
			c.csr = append(c.csr, base.csr[lo:hi]...)
			c.labelCSR = append(c.labelCSR, base.labelCSR[lo:hi]...)
			c.spans = append(c.spans, base.spans[slo:shi]...)
			for i := spanAt; i < len(c.spans); i++ {
				c.spans[i].off += shift
			}
			for i := a + 1; i <= e; i++ {
				c.csrOff[i] = base.csrOff[i] + shift
				c.spanOff[i] = base.spanOff[i] + spanShift
			}
			yield(int(hi - lo))
			a = e
		}
	}
	run := 0 // first node not yet copied
	for pi, page := range ov.pages {
		for j, on := range page {
			if on == nil {
				continue
			}
			// Every node added since the base freeze has an overlay node,
			// so a run never extends past the base arrays.
			id := pi<<ovPageShift | j
			copyRun(run, id)
			run = id + 1
			off := int32(len(c.csr))
			c.csr = append(c.csr, on.csr...)
			c.labelCSR = append(c.labelCSR, on.labelCSR...)
			for _, sp := range on.spans {
				sp.off += off
				c.spans = append(c.spans, sp)
			}
			c.csrOff[id+1] = int32(len(c.csr))
			c.spanOff[id+1] = int32(len(c.spans))
			yield(len(on.csr))
		}
	}
	copyRun(run, nBase)

	// A type's list changed iff the overlay added to or retyped into it
	// (extraByType) or retyped out of it (a retyped node's base type);
	// one left with no node gets no entry, as in buildTypeIndex.
	changed := make(map[string]struct{}, len(ov.extraByType))
	for typ := range ov.extraByType {
		changed[typ] = struct{}{}
	}
	for id := range ov.retyped {
		changed[base.nodes[id].Type] = struct{}{}
	}
	c.byType = make(map[string][]NodeID, len(base.byType)+len(changed))
	for typ, ids := range base.byType {
		if _, ok := changed[typ]; !ok {
			c.byType[typ] = ids
		}
	}
	for typ := range changed {
		if ids := ov.nodesOfType(typ); len(ids) > 0 {
			c.byType[typ] = ids
		}
	}
	return c
}

// compactNames gives a compaction c of an overlay chain over base its
// two-level name index: base's full map, shared, and the names added
// since that map was built — base's own second map plus the chain's
// additions. Either second map is shared as it is when the other is
// empty; both are immutable. A second map that would outgrow a quarter
// of the full one is folded into a fresh full map instead, so lookups
// stay two probes and the fold's O(names) is paid once per quarter of
// the table added.
func compactNames(c, base *Graph, chain map[string]NodeID) (byName, added map[string]NodeID) {
	switch {
	case len(base.addedNames)+len(chain) > len(base.byName)/4:
		return c.nameIndex(), nil
	case len(chain) == 0:
		return base.byName, base.addedNames
	case len(base.addedNames) == 0:
		return base.byName, chain
	}
	added = make(map[string]NodeID, len(base.addedNames)+len(chain))
	maps.Copy(added, base.addedNames)
	maps.Copy(added, chain)
	return base.byName, added
}

// Rebase re-bases an overlay generation onto the compaction of one of
// its ancestors, for a compaction that ran while later generations were
// built over the old base. g and from must share a base, from must be g
// or a generation g was built over, and onto must be from.Compact(); it
// panics if the bases differ. The result answers every read exactly as g
// does, but aliases onto's CSR arrays and indexes, and its depth counts
// the generations since from. Overlay pages are cumulative and an overlay
// node holds its node's whole span, so the nodes whose span differs from
// onto's are exactly those whose overlay node g does not share with
// from: the patch set keeps those and drops the rest. The cost is the
// page table plus the nodes changed since from, nothing proportional to
// the graph.
func (g *Graph) Rebase(from, onto *Graph) *Graph {
	if g == from {
		return onto
	}
	if g.ov == nil || from.ov == nil || g.ov.base != from.ov.base {
		panic("kb: Rebase: the generations do not share an overlay base")
	}
	gov, fov := g.ov, from.ov
	r := &Graph{
		nodes:         g.nodes,
		labels:        append([]string(nil), g.labels...),
		labelIDs:      maps.Clone(g.labelIDs),
		labelDirected: append([]bool(nil), g.labelDirected...),
		numEdges:      g.numEdges,
		frozen:        true,
		csrOff:        onto.csrOff,
		csr:           onto.csr,
		labelCSR:      onto.labelCSR,
		spanOff:       onto.spanOff,
		spans:         onto.spans,
		byType:        onto.byType,
		byName:        onto.byName,
		addedNames:    onto.addedNames,
		fp:            g.fp,
		xorFP:         g.xorFP,
		maxDegree:     g.maxDegree,
	}
	ov := &overlay{base: onto, depth: gov.depth - fov.depth, pages: make([]ovPage, len(gov.pages))}
	for pi, page := range gov.pages {
		var old ovPage
		if pi < len(fov.pages) {
			old = fov.pages[pi]
		}
		if page == nil || (old != nil && &page[0] == &old[0]) {
			continue // untouched since from: onto holds every span on it
		}
		var kept ovPage
		for j, on := range page {
			if on == nil || (old != nil && old[j] == on) {
				continue
			}
			if kept == nil {
				kept = make(ovPage, ovPageSize)
			}
			kept[j] = on
			ov.halfEdges += len(on.csr)
		}
		ov.pages[pi] = kept
	}

	// Node bookkeeping relative to onto, whose node table is from's: the
	// names added since from, and the nodes whose type differs from
	// from's — only a node retyped against the old base on either side,
	// or added between that base and from, can.
	ov.addedByName = make(map[string]NodeID, len(g.nodes)-len(from.nodes))
	for _, nd := range g.nodes[len(from.nodes):] {
		ov.addedByName[nd.Name] = nd.ID
	}
	ov.retyped = make(map[NodeID]string)
	retype := func(id NodeID) {
		if typ := g.nodes[id].Type; typ != from.nodes[id].Type {
			ov.retyped[id] = typ
		}
	}
	for id := range gov.retyped {
		retype(id)
	}
	for id := range fov.retyped {
		retype(id)
	}
	for id := len(fov.base.nodes); id < len(from.nodes); id++ {
		retype(NodeID(id))
	}
	ov.extraByType = typeExtras(g.nodes, len(from.nodes), ov.retyped)
	r.ov = ov
	return r
}

// typeExtras lists, per type and in ID order, the nodes an overlay
// generation's base type lists miss: those added since the base (IDs
// from nBase on) and the base nodes retyped into the type.
func typeExtras(nodes []Node, nBase int, retyped map[NodeID]string) map[string][]NodeID {
	extra := make(map[string][]NodeID)
	for id := nBase; id < len(nodes); id++ {
		t := nodes[id].Type
		extra[t] = append(extra[t], NodeID(id))
	}
	for id, typ := range retyped {
		extra[typ] = append(extra[typ], id)
	}
	for _, ids := range extra {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return extra
}

// OverlayBuilder accumulates one delta against a frozen graph and
// materialises it as the next overlay generation. The source graph —
// plain or itself an overlay generation — is never modified and keeps
// serving reads throughout.
//
// The builder mirrors the Graph mutators' semantics exactly: re-adding
// an existing node or edge and removing an absent edge are no-ops, and
// validation errors carry the same messages as the mutate path, so the
// delta layer behaves identically whichever apply path it takes.
type OverlayBuilder struct {
	src  *Graph // frozen source generation
	base *Graph // plain frozen root (src, or src's overlay base)

	addNodes  []Node            // nodes added by this delta, IDs from src.NumNodes()
	addByName map[string]NodeID // name index over addNodes
	retypes   map[NodeID]string // pending type changes vs. the src view

	addLabels   []string
	addLabelDir []bool
	addLabelIDs map[string]LabelID

	// edges holds the desired post-delta state of every edge the delta
	// touched, keyed canonically; an entry exists iff that state differs
	// from src, so cancelling operations restore src sharing.
	edges    map[edgeKey]bool
	touched  map[NodeID]struct{} // endpoints of changed edges
	numEdges int                 // running edge count of the new generation
	xor      uint64              // running content-hash delta vs. src
}

// NewOverlayBuilder starts a delta against a frozen graph. It fails on
// an unfrozen graph: overlays patch CSR spans, which only exist frozen.
func NewOverlayBuilder(src *Graph) (*OverlayBuilder, error) {
	if src == nil {
		return nil, fmt.Errorf("kb: NewOverlayBuilder: nil graph")
	}
	if !src.frozen {
		return nil, fmt.Errorf("kb: NewOverlayBuilder: graph is not frozen")
	}
	base := src
	if src.ov != nil {
		base = src.ov.base
	}
	return &OverlayBuilder{
		src:         src,
		base:        base,
		addByName:   make(map[string]NodeID),
		retypes:     make(map[NodeID]string),
		addLabelIDs: make(map[string]LabelID),
		edges:       make(map[edgeKey]bool),
		touched:     make(map[NodeID]struct{}),
		numEdges:    src.NumEdges(),
	}, nil
}

// NumNodes reports the node count of the pending generation.
func (b *OverlayBuilder) NumNodes() int { return b.src.NumNodes() + len(b.addNodes) }

// NumEdges reports the edge count of the pending generation.
func (b *OverlayBuilder) NumEdges() int { return b.numEdges }

// NodeByName resolves a name against the source graph plus this
// delta's additions, returning InvalidNode when absent.
func (b *OverlayBuilder) NodeByName(name string) NodeID {
	if id := b.src.NodeByName(name); id != InvalidNode {
		return id
	}
	if id, ok := b.addByName[name]; ok {
		return id
	}
	return InvalidNode
}

// NodeType reports the pending entity type of a node.
func (b *OverlayBuilder) NodeType(id NodeID) string {
	if i := int(id) - b.src.NumNodes(); i >= 0 {
		return b.addNodes[i].Type
	}
	if t, ok := b.retypes[id]; ok {
		return t
	}
	return b.src.Node(id).Type
}

// nodeName resolves a node name through the pending view.
func (b *OverlayBuilder) nodeName(id NodeID) string {
	if i := int(id) - b.src.NumNodes(); i >= 0 && i < len(b.addNodes) {
		return b.addNodes[i].Name
	}
	return b.src.NodeName(id)
}

// AddNode inserts an entity, returning the existing ID unchanged when
// the name is already bound — the same semantics as Graph.AddNode.
func (b *OverlayBuilder) AddNode(name, typ string) NodeID {
	if id := b.NodeByName(name); id != InvalidNode {
		return id
	}
	id := NodeID(b.NumNodes())
	b.addNodes = append(b.addNodes, Node{ID: id, Name: name, Type: typ})
	b.addByName[name] = id
	b.xor ^= nodeHash(name, typ)
	return id
}

// LabelByName resolves a label through the pending view.
func (b *OverlayBuilder) LabelByName(name string) LabelID {
	if id := b.src.LabelByName(name); id != InvalidLabel {
		return id
	}
	if id, ok := b.addLabelIDs[name]; ok {
		return id
	}
	return InvalidLabel
}

// numLabels reports the label count of the pending generation.
func (b *OverlayBuilder) numLabels() int { return b.src.NumLabels() + len(b.addLabels) }

// labelDirected reports directedness through the pending view.
func (b *OverlayBuilder) labelDirected(id LabelID) bool {
	if i := int(id) - b.src.NumLabels(); i >= 0 {
		return b.addLabelDir[i]
	}
	return b.src.LabelDirected(id)
}

// Label interns a relationship label with Graph.Label's semantics,
// including the directedness-conflict error.
func (b *OverlayBuilder) Label(name string, directed bool) (LabelID, error) {
	if id := b.LabelByName(name); id != InvalidLabel {
		if b.labelDirected(id) != directed {
			return InvalidLabel, fmt.Errorf("kb: label %q registered as directed=%v, got directed=%v",
				name, b.labelDirected(id), directed)
		}
		return id, nil
	}
	id := LabelID(b.numLabels())
	b.addLabels = append(b.addLabels, name)
	b.addLabelDir = append(b.addLabelDir, directed)
	b.addLabelIDs[name] = id
	b.xor ^= labelHash(name, directed)
	return id, nil
}

// SetNodeType changes an entity's pending type, with Graph.SetNodeType's
// range validation.
func (b *OverlayBuilder) SetNodeType(id NodeID, typ string) error {
	if id < 0 || int(id) >= b.NumNodes() {
		return fmt.Errorf("kb: SetNodeType: node %d out of range", id)
	}
	old := b.NodeType(id)
	if old == typ {
		return nil
	}
	name := b.nodeName(id)
	b.xor ^= nodeHash(name, old) ^ nodeHash(name, typ)
	if i := int(id) - b.src.NumNodes(); i >= 0 {
		b.addNodes[i].Type = typ
	} else if b.src.Node(id).Type == typ {
		delete(b.retypes, id)
	} else {
		b.retypes[id] = typ
	}
	return nil
}

// canonicalEdge returns the canonical storage key of an edge: directed
// edges keep their orientation, undirected edges order from ≤ to.
func (b *OverlayBuilder) canonicalEdge(from, to NodeID, label LabelID) edgeKey {
	if !b.labelDirected(label) && from > to {
		from, to = to, from
	}
	return edgeKey{from, to, label}
}

// srcHas reports whether the source graph contains the canonical edge.
func (b *OverlayBuilder) srcHas(key edgeKey) bool {
	if int(key.from) >= b.src.NumNodes() || int(key.to) >= b.src.NumNodes() ||
		int(key.label) >= b.src.NumLabels() {
		return false
	}
	return b.src.HasEdge(key.from, key.to, key.label)
}

// hasEdge reports edge existence through the pending view.
func (b *OverlayBuilder) hasEdge(key edgeKey) bool {
	if present, ok := b.edges[key]; ok {
		return present
	}
	return b.srcHas(key)
}

// edgeXor is the content-hash contribution of the canonical edge.
func (b *OverlayBuilder) edgeXor(key edgeKey) uint64 {
	var labelName string
	if i := int(key.label) - b.src.NumLabels(); i >= 0 {
		labelName = b.addLabels[i]
	} else {
		labelName = b.src.LabelName(key.label)
	}
	return edgeHash(b.nodeName(key.from), b.nodeName(key.to), labelName)
}

// AddEdge inserts an edge with Graph.AddEdge's semantics: range and
// self-loop validation with identical messages, duplicate inserts
// ignored. It reports whether the edge was newly inserted.
func (b *OverlayBuilder) AddEdge(from, to NodeID, label LabelID) (bool, error) {
	if int(from) >= b.NumNodes() || from < 0 {
		return false, fmt.Errorf("kb: AddEdge: from node %d out of range", from)
	}
	if int(to) >= b.NumNodes() || to < 0 {
		return false, fmt.Errorf("kb: AddEdge: to node %d out of range", to)
	}
	if int(label) >= b.numLabels() || label < 0 {
		return false, fmt.Errorf("kb: AddEdge: label %d out of range", label)
	}
	if from == to {
		return false, fmt.Errorf("kb: AddEdge: self-loop on node %d (%s) not supported", from, b.nodeName(from))
	}
	key := b.canonicalEdge(from, to, label)
	if b.hasEdge(key) {
		return false, nil
	}
	if b.srcHas(key) {
		delete(b.edges, key) // re-add after a pending removal: back to src state
	} else {
		b.edges[key] = true
	}
	b.touched[key.from] = struct{}{}
	b.touched[key.to] = struct{}{}
	b.numEdges++
	b.xor ^= b.edgeXor(key)
	return true, nil
}

// RemoveEdge deletes an edge with Graph.RemoveEdge's semantics,
// reporting whether an edge was actually removed.
func (b *OverlayBuilder) RemoveEdge(from, to NodeID, label LabelID) (bool, error) {
	if int(from) >= b.NumNodes() || from < 0 {
		return false, fmt.Errorf("kb: RemoveEdge: from node %d out of range", from)
	}
	if int(to) >= b.NumNodes() || to < 0 {
		return false, fmt.Errorf("kb: RemoveEdge: to node %d out of range", to)
	}
	if int(label) >= b.numLabels() || label < 0 {
		return false, fmt.Errorf("kb: RemoveEdge: label %d out of range", label)
	}
	key := b.canonicalEdge(from, to, label)
	if !b.hasEdge(key) {
		return false, nil
	}
	if b.srcHas(key) {
		b.edges[key] = false // tombstone over the base span
	} else {
		delete(b.edges, key) // remove of a pending add: back to src state
	}
	b.touched[key.from] = struct{}{}
	b.touched[key.to] = struct{}{}
	b.numEdges--
	b.xor ^= b.edgeXor(key)
	return true, nil
}

// Changed reports whether the pending delta differs from the source
// graph at all.
func (b *OverlayBuilder) Changed() bool {
	return len(b.addNodes) > 0 || len(b.retypes) > 0 || len(b.addLabels) > 0 || len(b.edges) > 0
}

// Graph materialises the pending delta as the next overlay generation.
// The builder must not be used afterwards.
func (b *OverlayBuilder) Graph() *Graph {
	src, base := b.src, b.base
	nSrc := src.NumNodes()
	total := nSrc + len(b.addNodes)

	ng := &Graph{
		numEdges: b.numEdges,
		frozen:   true,
		// Aliased base read path: untouched nodes answer straight from
		// the base arrays.
		csrOff:     base.csrOff,
		csr:        base.csr,
		labelCSR:   base.labelCSR,
		spanOff:    base.spanOff,
		spans:      base.spans,
		byType:     base.byType,
		byName:     base.byName,
		addedNames: base.addedNames,
		xorFP:      src.xorFP ^ b.xor,
		// Raised below by any node that outgrows it; rescanned only if a
		// node that held it got shorter.
		maxDegree: src.maxDegree,
	}
	ng.fp = fpString(total, b.numEdges, b.numLabels(), ng.xorFP)

	nodeStateChanged := len(b.addNodes) > 0 || len(b.retypes) > 0
	if nodeStateChanged {
		nodes := make([]Node, 0, total)
		nodes = append(nodes, src.nodes...)
		for id, typ := range b.retypes {
			nodes[id].Type = typ
		}
		ng.nodes = append(nodes, b.addNodes...)
	} else {
		ng.nodes = src.nodes // shared with the frozen source
	}

	ng.labels = append(append([]string(nil), src.labels...), b.addLabels...)
	ng.labelDirected = append(append([]bool(nil), src.labelDirected...), b.addLabelDir...)
	ng.labelIDs = make(map[string]LabelID, len(ng.labels))
	for k, v := range src.labelIDs {
		ng.labelIDs[k] = v
	}
	for k, v := range b.addLabelIDs {
		ng.labelIDs[k] = v
	}

	ov := &overlay{base: base, depth: 1}
	if src.ov != nil {
		ov.depth = src.ov.depth + 1
		ov.halfEdges = src.ov.halfEdges
	}

	// Node directory: start from the source generation's pages, extend
	// to cover added nodes, and copy-on-write only the pages this delta
	// touches.
	numPages := (total + ovPageSize - 1) >> ovPageShift
	ov.pages = make([]ovPage, numPages)
	if src.ov != nil {
		copy(ov.pages, src.ov.pages)
	}
	clonedPages := make(map[int]bool)
	setNode := func(id NodeID, on *ovNode) {
		pi := int(id) >> ovPageShift
		if !clonedPages[pi] {
			np := make(ovPage, ovPageSize)
			if ov.pages[pi] != nil {
				copy(np, ov.pages[pi])
			}
			ov.pages[pi] = np
			clonedPages[pi] = true
		}
		ov.pages[pi][int(id)&ovPageMask] = on
	}

	// Cumulative name/type bookkeeping: shared with the source
	// generation when this delta changed no node state.
	if src.ov != nil && !nodeStateChanged {
		ov.addedByName = src.ov.addedByName
		ov.retyped = src.ov.retyped
		ov.extraByType = src.ov.extraByType
	} else {
		ov.addedByName = make(map[string]NodeID, len(b.addByName))
		ov.retyped = make(map[NodeID]string)
		if src.ov != nil {
			for k, v := range src.ov.addedByName {
				ov.addedByName[k] = v
			}
			for k, v := range src.ov.retyped {
				ov.retyped[k] = v
			}
		}
		for k, v := range b.addByName {
			ov.addedByName[k] = v
		}
		for id, typ := range b.retypes {
			if int(id) < base.NumNodes() {
				if base.nodes[id].Type == typ {
					delete(ov.retyped, id)
				} else {
					ov.retyped[id] = typ
				}
			}
		}
		ov.extraByType = typeExtras(ng.nodes, base.NumNodes(), ov.retyped)
	}

	// Group this delta's edge changes by endpoint.
	type nodeDiff struct {
		add, del []HalfEdge
	}
	diffs := make(map[NodeID]*nodeDiff, len(b.touched))
	diffAt := func(id NodeID) *nodeDiff {
		d := diffs[id]
		if d == nil {
			d = &nodeDiff{}
			diffs[id] = d
		}
		return d
	}
	for key, present := range b.edges {
		fromHE := HalfEdge{To: key.to, Label: key.label, Dir: Undirected}
		toHE := HalfEdge{To: key.from, Label: key.label, Dir: Undirected}
		if ng.labelDirected[key.label] {
			fromHE.Dir, toHE.Dir = Out, In
		}
		if present {
			diffAt(key.from).add = append(diffAt(key.from).add, fromHE)
			diffAt(key.to).add = append(diffAt(key.to).add, toHE)
		} else {
			diffAt(key.from).del = append(diffAt(key.from).del, fromHE)
			diffAt(key.to).del = append(diffAt(key.to).del, toHE)
		}
	}

	// Materialise every changed node's merged span.
	maxShrunk := false
	for id, d := range diffs {
		var cur []HalfEdge
		var replaced int
		if int(id) < nSrc {
			cur = src.Neighbors(id)
			if src.ov != nil {
				if prev := src.ov.node(id); prev != nil {
					replaced = len(prev.csr)
				}
			}
		}
		merged := make([]HalfEdge, 0, len(cur)+len(d.add)-len(d.del))
		for _, he := range cur {
			drop := false
			for _, del := range d.del {
				if he == del {
					drop = true
					break
				}
			}
			if !drop {
				merged = append(merged, he)
			}
		}
		merged = append(merged, d.add...)
		sort.Slice(merged, func(x, y int) bool {
			if merged[x].To != merged[y].To {
				return merged[x].To < merged[y].To
			}
			if merged[x].Label != merged[y].Label {
				return merged[x].Label < merged[y].Label
			}
			return merged[x].Dir < merged[y].Dir
		})
		labelCSR, spans := buildNodeLabelView(merged)
		setNode(id, &ovNode{csr: merged, labelCSR: labelCSR, spans: spans})
		ov.halfEdges += len(merged) - replaced
		ng.maxDegree = max(ng.maxDegree, len(merged))
		maxShrunk = maxShrunk || (len(cur) == src.maxDegree && len(merged) < len(cur))
	}

	// Added nodes the delta never connected still need (empty) overlay
	// entries so reads never reach the base offset arrays.
	for _, nd := range b.addNodes {
		if diffs[nd.ID] == nil {
			setNode(nd.ID, &ovNode{})
		}
	}

	ng.ov = ov
	if maxShrunk && ng.maxDegree == src.maxDegree {
		ng.maxDegree = ng.scanMaxDegree() // another node may still tie it
	}
	return ng
}

// buildNodeLabelView derives one node's (Label, To, Dir)-sorted view and
// label spans from its (To, Label, Dir)-sorted span — the single-node
// analogue of deriveLabelView, using the same stable counting pass so
// run order is byte-identical to a full freeze.
func buildNodeLabelView(span []HalfEdge) ([]HalfEdge, []labelSpan) {
	if len(span) == 0 {
		return nil, nil
	}
	type labelCount struct {
		label LabelID
		count int32
		off   int32
	}
	var touched []labelCount
	for _, he := range span {
		found := false
		for t := range touched {
			if touched[t].label == he.Label {
				touched[t].count++
				found = true
				break
			}
		}
		if !found {
			touched = append(touched, labelCount{label: he.Label, count: 1})
		}
	}
	sort.Slice(touched, func(x, y int) bool { return touched[x].label < touched[y].label })
	labelCSR := make([]HalfEdge, len(span))
	spans := make([]labelSpan, 0, len(touched))
	var off int32
	for t := range touched {
		touched[t].off = off
		spans = append(spans, labelSpan{label: touched[t].label, off: off, n: touched[t].count})
		off += touched[t].count
	}
	for _, he := range span {
		for t := range touched {
			if touched[t].label == he.Label {
				labelCSR[touched[t].off] = he
				touched[t].off++
				break
			}
		}
	}
	return labelCSR, spans
}
