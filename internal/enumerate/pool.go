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
	// The path search (path.go): the simple-path join's records and
	// buffers, and the paths it visited, filed by step sequence — each
	// group's key and path count, and per path its group and its nodes.
	join       kb.PathJoin
	groups     map[stepSeqKey]int32
	gseqs      []stepSeqKey
	gcounts    []int32
	pathGroups []int32
	pathNodes  []kb.NodeID

	// Path grouping (enumerate.go).
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
// footprint for the snapshot's lifetime. The path buffers are bounded by
// paths, not IDs: retainedCap paths of up to pattern.MaxVars nodes each.
func (s *enumState) oversized() bool {
	return s.join.Oversized(retainedCap) ||
		len(s.groups) > retainedCap ||
		cap(s.gseqs) > retainedCap ||
		cap(s.pathGroups) > retainedCap ||
		cap(s.pathNodes) > retainedCap*pattern.MaxVars ||
		cap(s.gcounts) > retainedCap ||
		len(s.unionSeen) > retainedCap ||
		len(s.newIndex) > retainedCap ||
		s.merger.Oversized(retainedCap)
}
