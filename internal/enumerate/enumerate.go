// Package enumerate implements the explanation enumeration REX serves
// (Section 3 of the paper): the general framework (Algorithm 2), simple
// path enumeration between the targets (Section 3.2) followed by
// PathUnionPrune (Algorithm 4), which combines the path explanations into
// all minimal explanations, using composition histories to restrict
// merge partners. It generates all and only the minimal explanations
// with at least one instance, with pattern size (node count) bounded by
// the configured limit.
//
// Paths come from kb's meet-in-the-middle join (kb.PathJoin, the one
// Connectedness counts with) on every request; a Budget caps the join's
// expansions, and a WithDeadline context ends it and the union (path.go).
//
// The paper's strawmen — NaiveEnum, PathEnumNaive, PathEnumBasic and
// PathUnionBasic — live in internal/oracle, which shares no code with
// this package; Figure 7 and the differential tests run them there.
package enumerate

import (
	"cmp"
	"context"
	"errors"
	"math/bits"
	"slices"
	"strings"
	"time"

	"rex/internal/kb"
	"rex/internal/obs"
	"rex/internal/pattern"
)

// PathAlgorithm is the type of Config.PathAlg.
//
// Deprecated: ignored; set only by benchmark/engine_cold.go until ROADMAP
// item 1(e).
type PathAlgorithm int

// PathPrioritized names the served path search.
//
// Deprecated: ignored; set only by benchmark/engine_cold.go until ROADMAP
// item 1(e).
const PathPrioritized PathAlgorithm = 2

// UnionAlgorithm is the type of Config.UnionAlg.
//
// Deprecated: ignored; set only by benchmark/engine_cold.go until ROADMAP
// item 1(e).
type UnionAlgorithm int

// UnionPrune names the served path union.
//
// Deprecated: ignored; set only by benchmark/engine_cold.go until ROADMAP
// item 1(e).
const UnionPrune UnionAlgorithm = 1

// Config parameterises enumeration. The zero value enumerates patterns of
// up to DefaultMaxPatternSize nodes on the served pipeline, unbudgeted,
// with the process-wide pool.
type Config struct {
	// MaxPatternSize bounds the number of nodes (variables) in a
	// pattern; the paper's n. Defaults to DefaultMaxPatternSize.
	MaxPatternSize int
	// Deprecated: ignored; set only by benchmark/engine_cold.go until
	// ROADMAP item 1(e).
	PathAlg PathAlgorithm
	// Deprecated: ignored; set only by benchmark/engine_cold.go until
	// ROADMAP item 1(e).
	UnionAlg UnionAlgorithm
	// Pool supplies reusable enumeration state. The facade owns one Pool
	// per knowledge-base snapshot; nil falls back to a process-wide
	// pool. Results never alias pooled storage, so any pool choice
	// yields identical output.
	Pool *Pool
	// Budget bounds the path search and the union, making enumeration
	// anytime. The zero value never truncates and is byte-identical to
	// unbudgeted enumeration.
	Budget Budget
}

// Budget bounds the work of one enumeration. When the budget expires the
// enumerator stops and returns the explanations built from every path
// completed so far, reporting truncation instead of an error. The zero
// value never truncates. A wall-clock bound is not a Budget field: it is
// the context's, set by WithDeadline.
type Budget struct {
	// MaxExpansions caps the path search's expansions (0 = unlimited):
	// the adjacency scans kb.PathJoin counts, one per partial path grown
	// on either side, which the query trace reports as expansions. The
	// join's visit order is deterministic, so the returned path set is a
	// deterministic prefix: enumerating with budget N always yields a
	// subset of the paths found with any budget ≥ N, and of the
	// unbudgeted set. It bounds the path search only: the union, and the
	// ranking after it, run on whatever paths it admitted.
	MaxExpansions int
}

// errDeadline is the cause of a context that WithDeadline's deadline
// ended; BudgetEnded tells it from every other end.
var errDeadline = errors.New("enumerate: budget deadline")

// WithDeadline returns ctx bounded by a wall-clock budget that ends at d.
// Every stage that runs under the returned context polls it as it polls
// cancellation; a stage that finds it ended asks BudgetEnded whether to
// truncate or to fail. Deadline truncation is timing-dependent and
// therefore not deterministic.
func WithDeadline(ctx context.Context, d time.Time) (context.Context, context.CancelFunc) {
	return context.WithDeadlineCause(ctx, d, errDeadline)
}

// BudgetEnded reports whether err, the error ctx ended with, is the end
// of a WithDeadline budget — a truncation, answered with the work done
// so far — rather than the caller's cancellation or the caller's own
// deadline, which stay errors. It looks at the cause only for a
// deadline, so a plain cancellation costs no further poll of ctx.
func BudgetEnded(ctx context.Context, err error) bool {
	return errors.Is(err, context.DeadlineExceeded) && errors.Is(context.Cause(ctx), errDeadline)
}

// DefaultMaxPatternSize matches the paper's experimental pattern size
// limit of 5 nodes.
const DefaultMaxPatternSize = 5

// normalized returns cfg with defaults applied.
func (cfg Config) normalized() Config {
	if cfg.MaxPatternSize <= 0 {
		cfg.MaxPatternSize = DefaultMaxPatternSize
	}
	if cfg.MaxPatternSize > pattern.MaxVars {
		cfg.MaxPatternSize = pattern.MaxVars
	}
	return cfg
}

// ExplanationsBudgeted runs the general enumeration framework
// (Algorithm 2): enumerate path explanations with length limit
// MaxPatternSize-1, then combine them into all minimal explanations of
// bounded size. The result is sorted deterministically by (pattern size,
// edge count, canonical key). Each explanation's instances are distinct,
// in no specified order. Enumeration and combination check ctx at
// bounded intervals and abort mid-flight, returning ctx.Err() and no
// explanations. When cfg.Budget or a WithDeadline budget on ctx
// truncates the search, truncated is true and the returned explanations
// are the complete minimal explanations built from every path the
// budget admitted — a valid (deterministic, for an expansion budget)
// subset of the unbudgeted result, never an error. With neither budget
// truncated is always false.
func ExplanationsBudgeted(ctx context.Context, g *kb.Graph, start, end kb.NodeID, cfg Config) (out []*pattern.Explanation, truncated bool, err error) {
	cfg = cfg.normalized()
	pl := cfg.pool()
	st := pl.get()
	defer pl.put(st)
	paths, truncated, err := st.paths(ctx, g, start, end, cfg)
	if err != nil {
		return nil, false, err
	}
	out, utrunc, err := st.pathUnionPrune(ctx, paths, cfg.MaxPatternSize)
	if err != nil {
		return nil, false, err
	}
	sortExplanations(out)
	if tr := obs.FromContext(ctx); tr != nil {
		n := 0
		for _, ex := range out {
			n += ex.Count()
		}
		tr.Add(obs.Instances, int64(n))
	}
	return out, truncated || utrunc, nil
}

// PathsBudgeted enumerates all simple-path explanations between the
// targets with path length up to MaxPatternSize-1 (Section 3.2), grouped
// into explanations (pattern + instance set) and sorted as
// ExplanationsBudgeted sorts them. Each explanation's instances are
// distinct, in no specified order. Cancellation is checked at bounded
// intervals inside the enumeration loops, under the anytime contract of
// ExplanationsBudgeted: a truncating budget yields the path explanations
// completed so far with truncated = true.
func PathsBudgeted(ctx context.Context, g *kb.Graph, start, end kb.NodeID, cfg Config) ([]*pattern.Explanation, bool, error) {
	cfg = cfg.normalized()
	pl := cfg.pool()
	st := pl.get()
	defer pl.put(st)
	return st.paths(ctx, g, start, end, cfg)
}

// paths runs the path search under the request's budget on the pooled
// state and groups the result into explanations.
func (st *enumState) paths(ctx context.Context, g *kb.Graph, start, end kb.NodeID, cfg Config) ([]*pattern.Explanation, bool, error) {
	// Single chokepoint for the enumerate stage: both entry points
	// (ExplanationsBudgeted and PathsBudgeted) funnel path
	// enumeration through here, so one Begin/End pair covers them all.
	tr := obs.FromContext(ctx)
	if !st.fresh {
		tr.MarkPoolReused()
	}
	st.fresh = false
	t0 := tr.Begin()
	// A context that has already ended never reaches the join, whose
	// first poll comes only at its 256th expansion. The check reads Done,
	// so the join's polls remain the only calls to Err.
	var (
		keys      []pathKey
		truncated bool
		err       error
	)
	select {
	case <-ctx.Done():
		keys, err = st.out[:0], ctx.Err()
	default:
		keys, truncated, err = st.pathSearch(ctx, g, start, end, cfg.MaxPatternSize-1, cfg.Budget.MaxExpansions)
	}
	switch {
	case err != nil && !BudgetEnded(ctx, err):
		return nil, false, err
	case err != nil:
		truncated = true
		tr.Truncated(obs.StageEnumerate, obs.TruncDeadline)
	case truncated:
		tr.Truncated(obs.StageEnumerate, obs.TruncExpansions)
	}
	out := st.groupPaths(g, keys)
	st.out = keys[:0] // retain the (possibly regrown) buffer for reuse
	tr.End(obs.StageEnumerate, t0, int64(len(out)))
	return out, truncated, nil
}

// pathKey is the comparable identity of a path instance: the node
// sequence plus per-step label and orientation, packed into a fixed-size
// struct so de-duplication maps hash it — and result buffers store it —
// without allocating. Path length is bounded by the pattern size limit,
// which New caps at pattern.MaxVars nodes. The key is the path: the full
// half-edge sequence reconstructs from nodes and steps (each step's
// target is the next node).
type pathKey struct {
	n     int8 // number of nodes; steps are n-1
	nodes [pattern.MaxVars]kb.NodeID
	steps [pattern.MaxVars - 1]pathStepKey
}

// pathRef names one key of groupPaths' input by index, and the group of
// its step sequence once pass 1 has assigned it.
type pathRef struct {
	key, group int32
}

type pathStepKey struct {
	label kb.LabelID
	dir   kb.Dir
}

// stepSeqKey is a path's label/orientation sequence with the concrete
// nodes stripped: two start→end paths have the same stepSeqKey iff their
// patterns are isomorphic with targets pinned (interior variables of a
// path are positional, and reversal is ruled out by the pinned,
// distinct targets). It is the grouping key that turns path instances
// into path explanations without building a pattern per instance.
type stepSeqKey struct {
	n     int8
	steps [pattern.MaxVars - 1]pathStepKey
}

func (k *pathKey) stepSeq() stepSeqKey {
	return stepSeqKey{n: k.n, steps: k.steps}
}

// compare orders path keys exactly as the legacy byte-string keys did
// (interleaved node/label little-endian bytes, prefix first), so the
// representative-pattern choice in groupPaths — and with it the rendered
// output — is unchanged from the string era. Pointers: a key is 140 B.
func (a *pathKey) compare(b *pathKey) int {
	for i := 0; ; i++ {
		if i >= int(a.n) || i >= int(b.n) {
			return cmp.Compare(a.n, b.n)
		}
		if a.nodes[i] != b.nodes[i] {
			return leCompare32(uint32(a.nodes[i]), uint32(b.nodes[i]))
		}
		if i >= int(a.n)-1 || i >= int(b.n)-1 {
			return cmp.Compare(a.n, b.n)
		}
		if a.steps[i] != b.steps[i] {
			if a.steps[i].label != b.steps[i].label {
				return leCompare32(uint32(a.steps[i].label), uint32(b.steps[i].label))
			}
			return cmp.Compare(a.steps[i].dir, b.steps[i].dir)
		}
	}
}

// leCompare32 compares two 32-bit values by their little-endian byte
// encoding — the comparison the legacy string keys performed.
func leCompare32(a, b uint32) int {
	return cmp.Compare(bits.ReverseBytes32(a), bits.ReverseBytes32(b))
}

// groupPaths converts path instances into path explanations: instances
// sharing an isomorphic pattern are grouped under one explanation. Two
// start→end paths are pattern-isomorphic exactly when their step
// sequences agree (see stepSeqKey), so grouping needs no pattern
// construction per instance: the keys are sorted (which also puts each
// group's smallest-keyed instance — the representative, whatever order
// the enumerator found the paths in — first), de-duplicated by adjacent
// equality, counted per group, and materialised with one pattern and one
// block-allocated instance set per group. What is sorted is a reference
// to each key: a key is 140 B, which a comparison by value would copy
// twice.
func (st *enumState) groupPaths(g *kb.Graph, keys []pathKey) []*pattern.Explanation {
	if len(keys) == 0 {
		return nil
	}
	refs := slices.Grow(st.refs[:0], len(keys))
	for i := range keys {
		refs = append(refs, pathRef{key: int32(i)})
	}
	st.refs = refs
	slices.SortFunc(refs, func(a, b pathRef) int { return keys[a.key].compare(&keys[b.key]) })
	// Pass 1: drop duplicates, give each unique path its group, and count
	// unique paths per group.
	clear(st.groups)
	st.gcounts = st.gcounts[:0]
	uniq := refs[:0]
	for _, r := range refs {
		if len(uniq) > 0 && keys[r.key] == keys[uniq[len(uniq)-1].key] {
			continue
		}
		ssk := keys[r.key].stepSeq()
		gid, ok := st.groups[ssk]
		if !ok {
			gid = int32(len(st.gcounts))
			st.groups[ssk] = gid
			st.gcounts = append(st.gcounts, 0)
		}
		st.gcounts[gid]++
		uniq = append(uniq, pathRef{key: r.key, group: gid})
	}
	// Pass 2: materialise. The representative pattern is built from the
	// group's first (smallest) key; every member shares its step
	// sequence, so instance numbering is positional for all of them:
	// [start, end, interior...]. Each group's instances share one flat
	// backing array sized exactly in pass 1, so a group costs one
	// pattern, one header slice and one ID block — regardless of how
	// many paths it contains.
	out := make([]*pattern.Explanation, len(st.gcounts))
	backs := make([][]kb.NodeID, len(st.gcounts))
	for _, r := range uniq {
		k, gid := &keys[r.key], r.group
		total := int(k.n)
		ex := out[gid]
		if ex == nil {
			nodes, steps := st.pathOf(k)
			p, _, err := pattern.FromPathInstance(g, nodes, steps)
			if err != nil {
				// Unreachable by construction; fail loudly in development.
				panic(err)
			}
			ex = &pattern.Explanation{P: p, Instances: make([]pattern.Instance, 0, st.gcounts[gid])}
			out[gid] = ex
			backs[gid] = make([]kb.NodeID, 0, int(st.gcounts[gid])*total)
		}
		b := backs[gid]
		off := len(b)
		b = append(b, k.nodes[0], k.nodes[k.n-1])
		b = append(b, k.nodes[1:int(k.n)-1]...)
		backs[gid] = b
		ex.Instances = append(ex.Instances, pattern.Instance(b[off:len(b):len(b)]))
	}
	sortExplanations(out)
	return out
}

// pathOf reconstructs a key's node and half-edge sequences into the
// state's scratch buffers (valid until the next call).
func (st *enumState) pathOf(k *pathKey) ([]kb.NodeID, []kb.HalfEdge) {
	n := int(k.n)
	nodes := st.nodesBuf[:n]
	steps := st.stepsBuf[:n-1]
	copy(nodes, k.nodes[:n])
	for i := 0; i < n-1; i++ {
		steps[i] = kb.HalfEdge{To: k.nodes[i+1], Label: k.steps[i].label, Dir: k.steps[i].dir}
	}
	return nodes, steps
}

// sortExplanations orders explanations by (pattern size, edge count,
// canonical key) for reproducible output. It leaves each instance list
// as it is: only the facade renders instances, and it orders the ones it
// renders.
func sortExplanations(es []*pattern.Explanation) {
	slices.SortFunc(es, func(a, b *pattern.Explanation) int {
		pa, pb := a.P, b.P
		if pa.NumVars() != pb.NumVars() {
			return pa.NumVars() - pb.NumVars()
		}
		if pa.NumEdges() != pb.NumEdges() {
			return pa.NumEdges() - pb.NumEdges()
		}
		return strings.Compare(pa.CanonicalKey(), pb.CanonicalKey())
	})
}
