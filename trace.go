package rex

import (
	"context"
	"time"

	"rex/internal/obs"
)

// QueryTrace is the per-query execution trace attached to Result when
// the query ran under a context from WithTrace: per-stage wall time and
// item counts (enumerate → match → measure → rank → merge, where match
// time nests inside measure), cache-hit and pool-reuse flags, the merge
// attempts with the candidates they joined (Joins) and the variable
// pairs the merge's emptiness mask ruled out unjoined (JoinsSkipped),
// the work the local-distribution kernel did as counts (Bindings:
// candidates the matcher examined — bindings tried, and the nodes a
// counting run's leaf scans looked at; WalkSteps: half-edges the path
// route visited, prefix plus scatter; Counted: the instances counted by
// local-distribution counts that ran to completion), the instances of
// the whole enumerated explanation set before ranking (Instances; 0 for
// an anti-monotone measure, whose ranker merges as it goes), and budget
// attribution naming the stage that exhausted MaxExpansions or Timeout
// ("enumerate:expansions", "rank:deadline", ...). UnattributedMS is the
// part of TotalMS that no top-level stage holds. MemoHits, MemoMisses,
// WalkCacheHits and WalkCacheMisses always read 0: the measures keep no
// memo and no walk cache. Deduped always reads false: a query that
// misses the cache computes, and none joins another's computation.
// These fields stay for consumers compiled against them.
type QueryTrace = obs.Report

// BuildInfo identifies the running binary (Go version, VCS revision).
type BuildInfo = obs.BuildInfo

// Build returns the binary's build identification.
func Build() BuildInfo { return obs.Build() }

// WithTrace returns a context that carries a fresh query trace. A query
// run under the returned context records per-stage timings and attaches
// the rendered QueryTrace to Result.Trace. Tracing costs one small
// allocation per query plus O(stages) atomic updates; without WithTrace
// the instrumented hot path adds zero allocations and never reads the
// clock. Each traced query needs its own WithTrace context: reusing one
// across queries aggregates their stages into a single trace.
func WithTrace(ctx context.Context) context.Context {
	return obs.NewContext(ctx, obs.NewTrace())
}

// tracedResult attaches the rendered trace, with the bounds the
// resolved request q ran under, to a shallow copy of res, so a cached
// result, shared between callers, is never mutated. With a nil trace it
// returns res unchanged.
func tracedResult(res *Result, tr *obs.Trace, t0 time.Time, q Request) *Result {
	if tr == nil || res == nil {
		return res
	}
	rep := tr.Report()
	rep.TotalMS = float64(time.Since(t0)) / 1e6
	rep.UnattributedMS = rep.TotalMS - float64(tr.InnerNs()+tr.StageNs(obs.StageRank))/1e6
	rep.BudgetMS = int64(q.Timeout / time.Millisecond)
	rep.BudgetExpansions = q.MaxExpansions
	cp := *res
	cp.Trace = rep
	return &cp
}
