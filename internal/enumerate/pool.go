package enumerate

import (
	"sync"

	"rex/internal/kb"
	"rex/internal/pattern"
)

// Pool reuses enumeration state across queries. The facade creates one
// Pool per knowledge-base snapshot, so steady-state enumeration touches
// the allocator only for the explanations it returns, and a hot-swapped
// snapshot's buffers become collectable the moment its Pool is dropped.
// A Pool is safe for concurrent use: each query checks out a private
// state, so concurrent queries never share scratch.
//
// The package-level entry points (ExplanationsBudgeted, PathsBudgeted)
// fall back to a process-wide Pool, keeping the zero-configuration API
// allocation-friendly too.
type Pool struct {
	p sync.Pool
}

// NewPool returns an empty enumeration-state pool.
func NewPool() *Pool {
	pl := &Pool{}
	pl.p.New = func() any { return newEnumState() }
	return pl
}

// defaultPool backs the package-level API.
var defaultPool = NewPool()

// pool resolves the pool configured on cfg, defaulting to the
// process-wide one.
func (cfg Config) pool() *Pool {
	if cfg.Pool != nil {
		return cfg.Pool
	}
	return defaultPool
}

func (pl *Pool) get() *enumState { return pl.p.Get().(*enumState) }

func (pl *Pool) put(s *enumState) {
	if s.oversized() {
		return // let an unusually large query's buffers go to the GC
	}
	pl.p.Put(s)
}

// retainedCap bounds how many elements a pooled buffer may keep between
// queries; a state that outgrew it is dropped instead of pinned forever.
const retainedCap = 1 << 16

// enumState is the per-query scratch of the enumeration pipeline: the
// path search's storage, path grouping tables and the union-phase merge
// machinery. All of it is reused across queries; none of it retains a
// reference to any graph, context or returned explanation after a query
// completes.
type enumState struct {
	// The frontier's dense terminal index (path.go): head[id] is 0 or
	// 1 + an index into states. All-zero between queries — every exit
	// resets the touched entries — and sized to the graph at every use,
	// because overlay generations add nodes. Its size is the graph's, not
	// the query's (4 B a node), so it is exempt from retainedCap.
	head    []int32
	touched []kb.NodeID
	out     []pathKey

	// Exhaustive route: the simple-path join's records and buffers.
	join kb.PathJoin

	// Activation-ordered frontier, for budgeted requests.
	states []nodeState
	pq     actQueue

	// Path grouping (enumerate.go).
	refs     []pathRef
	groups   map[stepSeqKey]int32
	gcounts  []int32
	nodesBuf [pattern.MaxVars]kb.NodeID
	stepsBuf [pattern.MaxVars - 1]kb.HalfEdge

	// Union phase (union.go).
	unionSeen map[pattern.Key]struct{}
	newIndex  map[pattern.Key]int
	merger    *pattern.Merger

	// fresh is true until the state's first enumeration, distinguishing
	// a newly allocated state from one recycled through the pool; the
	// query trace reports the latter as pool reuse.
	fresh bool
}

func newEnumState() *enumState {
	return &enumState{
		groups:    make(map[stepSeqKey]int32),
		unionSeen: make(map[pattern.Key]struct{}),
		newIndex:  make(map[pattern.Key]int),
		merger:    pattern.NewMerger(),
		fresh:     true,
	}
}

// oversized reports whether the state grew past what is worth
// retaining. Every reusable buffer counts — maps never shrink, so
// re-pooling a state after one pathological query would pin its
// footprint for the snapshot's lifetime.
func (s *enumState) oversized() bool {
	if cap(s.out) > retainedCap ||
		s.join.Oversized(retainedCap) ||
		cap(s.states) > retainedCap ||
		cap(s.pq) > retainedCap ||
		len(s.groups) > retainedCap ||
		cap(s.gcounts) > retainedCap ||
		cap(s.refs) > retainedCap ||
		len(s.unionSeen) > retainedCap ||
		len(s.newIndex) > retainedCap ||
		s.merger.Oversized(retainedCap) {
		return true
	}
	// The frontier's partials are spread over the per-node lists that
	// stateFor recycles, used or not by the last query.
	kept := 0
	all := s.states[:cap(s.states)]
	for i := range all {
		kept += cap(all[i].partial[0]) + cap(all[i].partial[1])
		if kept > retainedCap {
			return true
		}
	}
	return false
}

// nodeState is the per-node frontier bookkeeping of the prioritized
// search; see pathEnumPrioritized.
type nodeState struct {
	partial  [2][]partial
	expanded [2]int32 // partial[s][:expanded[s]] have been expanded
	act      [2]float64
}

// sizeIndex sizes the all-zero index to a graph of n nodes; the caller
// defers resetIndex, which zeroes what setHead touched since.
func (s *enumState) sizeIndex(n int) {
	if cap(s.head) < n {
		s.head = make([]int32, n)
	}
	s.head = s.head[:n]
}

func (s *enumState) setHead(id kb.NodeID, v int32) {
	if s.head[id] == 0 {
		s.touched = append(s.touched, id)
	}
	s.head[id] = v
}

func (s *enumState) resetIndex() {
	for _, id := range s.touched {
		s.head[id] = 0
	}
	s.touched = s.touched[:0]
}

// stateFor returns the index of id's nodeState, creating one (with
// recycled buffers) on first touch. Callers must index s.states fresh
// after any call that can create states — the backing array may move.
func (s *enumState) stateFor(id kb.NodeID) int32 {
	if i := s.head[id]; i != 0 {
		return i - 1
	}
	i := int32(len(s.states))
	if len(s.states) < cap(s.states) {
		s.states = s.states[:i+1]
		ns := &s.states[i]
		ns.partial[0] = ns.partial[0][:0]
		ns.partial[1] = ns.partial[1][:0]
		ns.expanded = [2]int32{}
		ns.act = [2]float64{}
	} else {
		s.states = append(s.states, nodeState{})
	}
	s.setHead(id, i+1)
	return i
}
