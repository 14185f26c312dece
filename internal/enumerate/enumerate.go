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
	"context"
	"errors"
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
// in no specified order (deterministic for a graph: the path search's
// visit order, then the union's merge order). Enumeration and
// combination check ctx at bounded intervals and abort mid-flight,
// returning ctx.Err() and no explanations. When a WithDeadline budget on
// ctx truncates the search, truncated is true and the returned
// explanations are the complete minimal explanations built from every
// path the budget admitted — a subset of the unbudgeted result, never an
// error. Without one truncated is always false.
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
// distinct, in no specified order (deterministic for a graph: the path
// search's visit order). Cancellation is checked at bounded intervals
// inside the enumeration loops, under the anytime contract of
// ExplanationsBudgeted: a truncating budget yields the path explanations
// completed so far with truncated = true.
func PathsBudgeted(ctx context.Context, g *kb.Graph, start, end kb.NodeID, cfg Config) ([]*pattern.Explanation, bool, error) {
	cfg = cfg.normalized()
	pl := cfg.pool()
	st := pl.get()
	defer pl.put(st)
	return st.paths(ctx, g, start, end, cfg)
}

// paths runs the path search on the pooled state and groups the result
// into explanations.
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
	err := st.pathSearch(ctx, g, start, end, cfg.MaxPatternSize-1)
	truncated := err != nil
	if truncated {
		if !BudgetEnded(ctx, err) {
			return nil, false, err
		}
		tr.Truncated(obs.StageEnumerate)
	}
	out := st.groupPaths(g)
	tr.End(obs.StageEnumerate, t0, int64(len(out)))
	return out, truncated, nil
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
	n     int8 // number of nodes; steps are n-1
	steps [pattern.MaxVars - 1]pathStepKey
}

// groupPaths converts the paths pathSearch filed into path explanations,
// one per step sequence: it fills one exact-size ID block per group, in
// visit order, so a group costs one pattern, one header slice and one ID
// block however many paths it holds. The pattern is built from the
// group's first path; it depends only on the step sequence, so every
// member would give the same one.
func (st *enumState) groupPaths(g *kb.Graph) []*pattern.Explanation {
	if len(st.pathGroups) == 0 {
		return nil
	}
	out := make([]*pattern.Explanation, len(st.gseqs))
	backs := make([][]kb.NodeID, len(st.gseqs))
	off := 0
	for _, gid := range st.pathGroups {
		seq := &st.gseqs[gid]
		n := int(seq.n)
		inst := st.pathNodes[off : off+n]
		off += n
		if out[gid] == nil {
			// Back from [start, end, interior...] to path order.
			nodes := append(append(append(st.nodesBuf[:0], inst[0]), inst[2:]...), inst[1])
			steps := st.stepsBuf[:n-1]
			for i := range steps {
				steps[i] = kb.HalfEdge{To: nodes[i+1], Label: seq.steps[i].label, Dir: seq.steps[i].dir}
			}
			p, _, err := pattern.FromPathInstance(g, nodes, steps)
			if err != nil {
				// Unreachable by construction; fail loudly in development.
				panic(err)
			}
			out[gid] = &pattern.Explanation{P: p, Instances: make([]pattern.Instance, 0, st.gcounts[gid])}
			backs[gid] = make([]kb.NodeID, 0, int(st.gcounts[gid])*n)
		}
		b := append(backs[gid], inst...)
		backs[gid] = b
		out[gid].Instances = append(out[gid].Instances, pattern.Instance(b[len(b)-n:len(b):len(b)]))
	}
	sortExplanations(out)
	return out
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
