package kb

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync/atomic"
)

// This file implements overlay generations: graphs that layer a small
// per-node patch set over an immutable base, so a delta of d operations
// produces the next queryable snapshot in O(d · degree) instead of the
// O(graph) rebuild through a Builder.
//
// An overlay generation is a real *Graph — every read accessor answers
// byte-identically to a Build of the same content (property tested) —
// but its CSR arrays are aliased from the base. Only nodes whose
// adjacency actually changed get materialised spans, looked up
// through a sparse page table. Stacked deltas produce stacked overlay
// generations over the same base until Compact folds everything back
// into a plain graph with fresh CSR arrays. Nothing a generation builds
// grows with the number of generations under it: added nodes are
// appended to the node table the source shares (appendNodes), and the
// names and types added since the base are indexed in levels
// (addedLevel), so a chain needs no bound on its depth. Like every
// graph, a generation is never written after the builder returns it.

const (
	ovPageShift = 9 // 512 nodes per page: a touched page costs 4KB
	ovPageSize  = 1 << ovPageShift
	ovPageMask  = ovPageSize - 1
)

// ovNode is one materialised overlay node: its full half-edge span and
// label runs, replacing the base's entirely. An empty ovNode (all fields
// nil) represents a node with no edges — every node added after the base
// was built has one, so reads never index the base offset arrays out of
// range.
type ovNode struct {
	csr   []HalfEdge  // sorted by (Label, To, Dir), like Graph.csr spans
	spans []labelSpan // per-label runs; offsets relative to csr
}

// ovPage is one fixed-size page of the overlay node directory.
type ovPage []*ovNode

// overlay is the patch set of one overlay generation. All fields are
// immutable after the builder returns; pages untouched by later
// generations are shared between them.
type overlay struct {
	base  *Graph // plain root whose CSR arrays the generation aliases
	depth int    // stacked overlay generations since the last plain graph

	pages []ovPage // node directory, indexed by NodeID >> ovPageShift

	// Node bookkeeping since the base, immutable and shared with
	// the source generation until a delta changes it. added indexes the
	// nodes added since the base (IDs from len(base.nodes) on), oldest
	// level first, and complements the base's shared name maps; retyped
	// maps base nodes whose current type differs from their base type
	// (so base type lists can be filtered on read), and retypedIn lists
	// those nodes per current type in ID order.
	added     []*addedLevel
	retyped   map[NodeID]string
	retypedIn map[string][]NodeID

	halfEdges int // half-edges materialised across all ovNodes
}

// addedLevel indexes one contiguous run of the nodes added since an
// overlay's base: their names, and their IDs per type in ID order. A
// level is immutable. A node-adding delta pushes a level of its own
// nodes and merges the newest levels into it binary-counter style
// (pushLevel), so a generation holds O(log A) levels for A added nodes
// and a node is indexed O(log A) times over its life, however long the
// chain grows.
type addedLevel struct {
	n      int // nodes in the run
	byName map[string]NodeID
	byType map[string][]NodeID
}

// newLevel indexes nodes[lo:].
func newLevel(nodes []Node, lo int) *addedLevel {
	lv := &addedLevel{n: len(nodes) - lo, byName: make(map[string]NodeID, len(nodes)-lo), byType: make(map[string][]NodeID)}
	for _, nd := range nodes[lo:] {
		lv.byName[nd.Name] = nd.ID
		lv.byType[nd.Type] = append(lv.byType[nd.Type], nd.ID)
	}
	return lv
}

// pushLevel returns levels, which index nodes[:lo] past the base, plus
// a level for nodes[lo:]. While the newest level is no more than one
// binary order of magnitude larger than the new one, the two are
// re-indexed as one, so the levels' orders strictly decrease from the
// oldest. levels itself is left as it is: other generations share it.
func pushLevel(levels []*addedLevel, nodes []Node, lo int) []*addedLevel {
	out := make([]*addedLevel, len(levels), len(levels)+1)
	copy(out, levels)
	for len(out) > 0 && bits.Len(uint(out[len(out)-1].n)) <= bits.Len(uint(len(nodes)-lo)) {
		lo -= out[len(out)-1].n
		out = out[:len(out)-1]
	}
	return append(out, newLevel(nodes, lo))
}

// addedNames returns every name the levels index in one map: the
// single level's own when there is one, nil when there is none.
func (ov *overlay) addedNames() map[string]NodeID {
	switch len(ov.added) {
	case 0:
		return nil
	case 1:
		return ov.added[0].byName
	}
	n := 0
	for _, lv := range ov.added {
		n += lv.n
	}
	m := make(map[string]NodeID, n)
	for _, lv := range ov.added {
		maps.Copy(m, lv.byName)
	}
	return m
}

// typeLists lists retyped base nodes per current type, in ID order.
func typeLists(retyped map[NodeID]string) map[string][]NodeID {
	lists := make(map[string][]NodeID)
	for id, typ := range retyped {
		lists[typ] = append(lists[typ], id)
	}
	for _, ids := range lists {
		slices.Sort(ids)
	}
	return lists
}

// appendNodes returns a node table extended by added, and the claim of
// the array it lives in. When the table's length is still the claim on
// its backing array — no other generation, published or not, has
// appended past it — the nodes go into the spare capacity in place, and
// the readers of every generation sharing the array never look past
// their own length. Otherwise (or with a nil claim) the table is copied
// into a fresh array of twice its new length, under a fresh claim, so
// the copies are amortized O(1) per added node.
func appendNodes(nodes []Node, claim *atomic.Int64, added []Node) ([]Node, *atomic.Int64) {
	n := len(nodes) + len(added)
	if claim != nil && n <= cap(nodes) && claim.CompareAndSwap(int64(len(nodes)), int64(n)) {
		return append(nodes, added...), claim
	}
	nodes = append(append(make([]Node, 0, 2*n), nodes...), added...)
	claim = new(atomic.Int64)
	claim.Store(int64(len(nodes)))
	return nodes, claim
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

// nodesOfType answers NodesOfType for an overlay generation: the base
// type list filtered by retypes, merged in ID order with the base nodes
// retyped into the type, then the added nodes of the type level by
// level — every added ID is above every base ID, and the levels cover
// ascending runs.
func (ov *overlay) nodesOfType(typ string) []NodeID {
	baseList := ov.base.byType[typ]
	in := ov.retypedIn[typ]
	n := len(baseList) + len(in)
	for _, lv := range ov.added {
		n += len(lv.byType[typ])
	}
	out := make([]NodeID, 0, n)
	for _, id := range baseList {
		// A base node present in retyped has moved to another type: if
		// its current type were typ it would not appear in this base
		// list at all.
		if _, moved := ov.retyped[id]; moved {
			continue
		}
		for len(in) > 0 && in[0] < id {
			out = append(out, in[0])
			in = in[1:]
		}
		out = append(out, id)
	}
	out = append(out, in...)
	for _, lv := range ov.added {
		out = append(out, lv.byType[typ]...)
	}
	return out
}

// OverlayInfo describes the overlay state of a graph, for
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

// Compact folds an overlay generation into a plain graph with
// fresh CSR arrays, by copying rather than rebuilding. Every overlay node
// already holds its sorted span with its label runs, byte-identical to a
// Build's, and every other node's are sitting in the base arrays, so
// each maximal run of untouched base nodes is two block copies with
// rebased offsets and each overlay node appends its own slices: no
// per-edge work, no sort. The type index shares the base's list for every
// type whose membership the overlay left alone — lists are never written
// after they are built: NodesOfType copies and Build makes a fresh map.
// The node table (with its claim) and the label tables are the overlay
// generation's own, aliased (no graph writes to them), and so is the
// base's name index, with the names added since it was built in a
// second map (compactNames). Fingerprint and maximum degree carry over
// unchanged. What remains proportional to the graph
// is the block copying. A plain graph is returned unchanged.
func (g *Graph) Compact() *Graph {
	if g.ov == nil {
		return g
	}
	ov, base := g.ov, g.ov.base
	n, nBase := len(g.nodes), len(base.nodes)
	c := &Graph{
		nodes:         g.nodes,
		claim:         g.claim,
		labels:        g.labels,
		labelIDs:      g.labelIDs,
		labelDirected: g.labelDirected,
		numEdges:      g.numEdges,
		xorFP:         g.xorFP,
		fp:            g.fp,
		maxDegree:     g.maxDegree,
		csrOff:        make([]int32, n+1),
		csr:           make([]HalfEdge, 0, 2*g.numEdges),
		spanOff:       make([]int32, n+1),
		spans:         make([]labelSpan, 0, len(base.spans)+len(base.spans)/16),
	}
	c.byName, c.addedNames = compactNames(c, base, ov.addedNames())

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
			c.spans = append(c.spans, base.spans[slo:shi]...)
			for i := spanAt; i < len(c.spans); i++ {
				c.spans[i].off += shift
			}
			for i := a + 1; i <= e; i++ {
				c.csrOff[i] = base.csrOff[i] + shift
				c.spanOff[i] = base.spanOff[i] + spanShift
			}
			a = e
		}
	}
	run := 0 // first node not yet copied
	for pi, page := range ov.pages {
		for j, on := range page {
			if on == nil {
				continue
			}
			// Every node added since the base has an overlay node,
			// so a run never extends past the base arrays.
			id := pi<<ovPageShift | j
			copyRun(run, id)
			run = id + 1
			off := int32(len(c.csr))
			c.csr = append(c.csr, on.csr...)
			for _, sp := range on.spans {
				sp.off += off
				c.spans = append(c.spans, sp)
			}
			c.csrOff[id+1] = int32(len(c.csr))
			c.spanOff[id+1] = int32(len(c.spans))
		}
	}
	copyRun(run, nBase)

	// A type's list changed iff the overlay added to it (a level's
	// byType), retyped into it (retypedIn) or retyped out of it (a
	// retyped node's base type); one left with no node gets no entry, as
	// in buildTypeIndex.
	changed := make(map[string]struct{}, len(ov.retypedIn))
	for typ := range ov.retypedIn {
		changed[typ] = struct{}{}
	}
	for _, lv := range ov.added {
		for typ := range lv.byType {
			changed[typ] = struct{}{}
		}
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

// OverlayBuilder accumulates one delta against a graph and
// materialises it as the next overlay generation. The source graph —
// plain or itself an overlay generation — is never modified and keeps
// serving reads throughout.
//
// The builder mirrors Builder's semantics exactly: re-adding an existing
// node or edge and removing an absent edge are no-ops, and validation
// errors carry the same messages, so a delta replayed onto a Builder (the
// tests' rebuild oracle) behaves identically.
type OverlayBuilder struct {
	src  *Graph // source generation
	base *Graph // plain root (src, or src's overlay base)

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

// NewOverlayBuilder starts a delta against a graph.
func NewOverlayBuilder(src *Graph) (*OverlayBuilder, error) {
	if src == nil {
		return nil, fmt.Errorf("kb: NewOverlayBuilder: nil graph")
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
// the name is already bound — the same semantics as Builder.AddNode.
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

// Label interns a relationship label with Builder.Label's semantics,
// including the directedness-conflict error.
func (b *OverlayBuilder) Label(name string, directed bool) (LabelID, error) {
	if id := b.LabelByName(name); id != InvalidLabel {
		if b.labelDirected(id) != directed {
			return InvalidLabel, labelConflict(name, b.labelDirected(id), directed)
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

// SetNodeType changes an entity's pending type, with Builder.SetNodeType's
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

// AddEdge inserts an edge with Builder.AddEdge's semantics: range and
// self-loop validation with identical messages, duplicate inserts
// ignored. It reports whether the edge was newly inserted.
func (b *OverlayBuilder) AddEdge(from, to NodeID, label LabelID) (bool, error) {
	if err := checkEdge("AddEdge", from, to, label, b.NumNodes(), b.numLabels()); err != nil {
		return false, err
	}
	if from == to {
		return false, fmt.Errorf("kb: AddEdge: self-loop on node %d (%s) not supported", from, b.nodeName(from))
	}
	key := canonicalKey(from, to, label, b.labelDirected(label))
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

// RemoveEdge deletes an edge with Builder.RemoveEdge's semantics,
// reporting whether an edge was actually removed.
func (b *OverlayBuilder) RemoveEdge(from, to NodeID, label LabelID) (bool, error) {
	if err := checkEdge("RemoveEdge", from, to, label, b.NumNodes(), b.numLabels()); err != nil {
		return false, err
	}
	key := canonicalKey(from, to, label, b.labelDirected(label))
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
// The builder must not be used afterwards. Its cost is the delta's: the
// added nodes are appended to the source's node table (appendNodes),
// the label tables and the node bookkeeping are shared with the source
// unless the delta changes them, and the page table is copied. Only a
// delta that retypes a node copies the node table, and one that retypes
// a node added since the base re-indexes the added nodes.
func (b *OverlayBuilder) Graph() *Graph {
	src, base := b.src, b.base
	nSrc, nBase := src.NumNodes(), base.NumNodes()
	total := nSrc + len(b.addNodes)

	ng := &Graph{
		numEdges: b.numEdges,
		// Aliased base read path: untouched nodes answer straight from
		// the base arrays.
		csrOff:     base.csrOff,
		csr:        base.csr,
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

	switch {
	case len(b.retypes) > 0:
		// Older generations read the types in place: a fresh array.
		ng.nodes, ng.claim = appendNodes(src.nodes, nil, b.addNodes)
		for id, typ := range b.retypes {
			ng.nodes[id].Type = typ
		}
	case len(b.addNodes) > 0:
		ng.nodes, ng.claim = appendNodes(src.nodes, src.claim, b.addNodes)
	default:
		ng.nodes, ng.claim = src.nodes, src.claim
	}

	ng.labels, ng.labelDirected, ng.labelIDs = src.labels, src.labelDirected, src.labelIDs
	if len(b.addLabels) > 0 {
		ng.labels = append(slices.Clip(src.labels), b.addLabels...)
		ng.labelDirected = append(slices.Clip(src.labelDirected), b.addLabelDir...)
		ng.labelIDs = make(map[string]LabelID, len(ng.labels))
		maps.Copy(ng.labelIDs, src.labelIDs)
		maps.Copy(ng.labelIDs, b.addLabelIDs)
	}

	ov := &overlay{base: base, depth: 1}
	if src.ov != nil {
		ov.depth = src.ov.depth + 1
		ov.halfEdges = src.ov.halfEdges
		ov.added, ov.retyped, ov.retypedIn = src.ov.added, src.ov.retyped, src.ov.retypedIn
	}
	// Node bookkeeping: a retype of a base node updates retyped, one of a
	// node added since the base re-indexes the added nodes as one level,
	// and added nodes otherwise push a level of their own.
	reindex := false
	if len(b.retypes) > 0 {
		retyped := maps.Clone(ov.retyped)
		if retyped == nil {
			retyped = make(map[NodeID]string)
		}
		for id, typ := range b.retypes {
			switch {
			case int(id) >= nBase:
				reindex = true
			case base.nodes[id].Type == typ:
				delete(retyped, id)
			default:
				retyped[id] = typ
			}
		}
		ov.retyped, ov.retypedIn = retyped, typeLists(retyped)
	}
	switch {
	case reindex:
		ov.added = []*addedLevel{newLevel(ng.nodes, nBase)}
	case len(b.addNodes) > 0:
		ov.added = pushLevel(ov.added, ng.nodes, nSrc)
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
		fromHE, toHE := halves(key.from, key.to, key.label, ng.labelDirected[key.label])
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
		slices.SortFunc(merged, compareHalfEdges)
		setNode(id, &ovNode{csr: merged, spans: appendRuns(nil, merged, 0)})
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
