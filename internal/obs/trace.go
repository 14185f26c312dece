// Package obs is the observability layer of the engine: a per-query
// stage trace carried on the context, a dependency-free Prometheus
// registry with text exposition, a slow-query ring log, and build
// identification.
//
// The design constraint is zero allocation on the hot path when tracing
// is off. Every recording method on *Trace is nil-receiver safe, so
// instrumented code calls obs.FromContext(ctx) once and records
// unconditionally; with no trace on the context every call degrades to
// a nil check. Begin returns the zero time.Time when the trace is nil,
// so the untraced path does not even read the clock. When tracing is
// on, the per-query cost is one *Trace (fixed-size, all atomics), one
// context value, and an O(stages) Report at the end.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of a query. Stages nest: match
// runs inside measure (the measures call the matcher), so match time is
// informational and not disjoint from measure time.
// The rank stage is recorded as the ranker's wall time minus the
// enumerate/measure/merge time it drove, keeping the top-level stages
// additive.
type Stage uint8

const (
	StageEnumerate Stage = iota
	StageMatch
	StageMeasure
	StageRank
	StageMerge
	numStages
)

var stageNames = [numStages]string{"enumerate", "match", "measure", "rank", "merge"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every stage in pipeline order, for metric registration.
func Stages() []Stage {
	return []Stage{StageEnumerate, StageMatch, StageMeasure, StageRank, StageMerge}
}

// TruncCause says which budget dimension cut a query short.
type TruncCause uint8

const (
	TruncNone TruncCause = iota
	TruncExpansions
	TruncDeadline
)

func (c TruncCause) String() string {
	switch c {
	case TruncExpansions:
		return "expansions"
	case TruncDeadline:
		return "deadline"
	}
	return "none"
}

// stageRec accumulates one stage's timings. All fields are atomic
// because a trace on a BatchExplain context is recorded into by every
// worker of the batch.
type stageRec struct {
	ns    atomic.Int64
	calls atomic.Int64
	items atomic.Int64
}

// Trace accumulates one query's per-stage wall time, counters and
// budget attribution. A nil *Trace is valid and records nothing.
type Trace struct {
	stages [numStages]stageRec

	expansions atomic.Int64
	merges     atomic.Int64
	joins      atomic.Int64
	joinsSkip  atomic.Int64
	bindings   atomic.Int64
	walkSteps  atomic.Int64

	flags atomic.Uint32
	// trunc packs the first budget-truncation event as
	// 1<<16 | stage<<8 | cause; first writer wins, so attribution
	// names the stage where the budget actually ran out.
	trunc atomic.Uint32
}

const (
	flagCacheHit uint32 = 1 << iota
	flagPoolReused
)

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Begin starts a stage timer. On a nil trace it returns the zero time
// without reading the clock, and the matching End is a no-op.
func (t *Trace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// End closes a stage timer opened by Begin, attributing the elapsed
// wall time, one call, and items processed to the stage.
func (t *Trace) End(s Stage, t0 time.Time, items int64) {
	if t == nil || t0.IsZero() {
		return
	}
	r := &t.stages[s]
	r.ns.Add(time.Since(t0).Nanoseconds())
	r.calls.Add(1)
	r.items.Add(items)
}

// AddStage attributes an externally measured duration to a stage.
func (t *Trace) AddStage(s Stage, d time.Duration, calls, items int64) {
	if t == nil {
		return
	}
	r := &t.stages[s]
	r.ns.Add(d.Nanoseconds())
	r.calls.Add(calls)
	r.items.Add(items)
}

// StageNs returns the nanoseconds recorded for a stage so far.
func (t *Trace) StageNs(s Stage) int64 {
	if t == nil {
		return 0
	}
	return t.stages[s].ns.Load()
}

// InnerNs sums the stages a ranker drives (enumerate, measure, merge).
// Rankers snapshot it before and after to report their own exclusive
// time; match is excluded because it already nests inside measure.
func (t *Trace) InnerNs() int64 {
	if t == nil {
		return 0
	}
	return t.stages[StageEnumerate].ns.Load() +
		t.stages[StageMeasure].ns.Load() +
		t.stages[StageMerge].ns.Load()
}

// AddExpansions adds path-search expansions: entries the budgeted
// frontier popped, or partials the exhaustive join expanded — one
// adjacency scan each.
func (t *Trace) AddExpansions(n int64) {
	if t == nil {
		return
	}
	t.expansions.Add(n)
}

// AddMerges adds pattern-merge attempts.
func (t *Trace) AddMerges(n int64) {
	if t == nil {
		return
	}
	t.merges.Add(n)
}

// AddJoins adds what the merge attempts cost at the instance stage:
// candidates joined (to their first merged instance at least), and
// variable pairs the merger's emptiness mask ruled out because no node
// is bound to both — each removes every mapping through it, unjoined.
func (t *Trace) AddJoins(run, skipped int64) {
	if t == nil {
		return
	}
	t.joins.Add(run)
	t.joinsSkip.Add(skipped)
}

// AddBindings adds candidates the backtracking matcher examined: bindings
// tried, and the nodes a counting run's leaf scans looked at.
func (t *Trace) AddBindings(n int64) {
	if t == nil {
		return
	}
	t.bindings.Add(n)
}

// AddWalkSteps adds half-edges the path route of the local-distribution
// kernel visited: prefix extensions plus scattered last-step entries.
func (t *Trace) AddWalkSteps(n int64) {
	if t == nil {
		return
	}
	t.walkSteps.Add(n)
}

// MarkCacheHit flags the query as served from the result cache.
func (t *Trace) MarkCacheHit() {
	if t == nil {
		return
	}
	t.flags.Or(flagCacheHit)
}

// MarkPoolReused flags that enumeration state came warm from the pool
// rather than freshly allocated.
func (t *Trace) MarkPoolReused() {
	if t == nil {
		return
	}
	t.flags.Or(flagPoolReused)
}

// Truncated records which stage exhausted which budget dimension. The
// first recording wins; later stages observing the already-tripped
// budget do not overwrite the attribution.
func (t *Trace) Truncated(s Stage, c TruncCause) {
	if t == nil || c == TruncNone {
		return
	}
	t.trunc.CompareAndSwap(0, 1<<16|uint32(s)<<8|uint32(c))
}

// ctxKey is the zero-size context key: FromContext on a traceless
// context costs a Value walk and nothing else.
type ctxKey struct{}

// NewContext returns a context carrying the trace.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// StageReport is one stage's rendered totals.
type StageReport struct {
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"duration_ms"`
	Calls      int64   `json:"calls"`
	Items      int64   `json:"items"`
}

// Report is the rendered, serializable form of a Trace, attached to
// Result and embedded in slow-log entries. TruncatedBy is
// "<stage>:<cause>" (e.g. "enumerate:expansions") or empty.
// MemoHits, MemoMisses, WalkCacheHits and WalkCacheMisses always read 0:
// the measures keep no memo and no walk cache. Deduped always reads
// false: every query that misses the cache computes, none joins another.
// These fields stay for consumers compiled against them.
type Report struct {
	// RequestID ties this trace to the HTTP request (and, behind a
	// router, the hedged attempt) that ran the query. Stamped by the
	// serving layer, not the engine.
	RequestID        string        `json:"request_id,omitempty"`
	TotalMS          float64       `json:"total_ms"`
	BudgetMS         int64         `json:"budget_ms,omitempty"`
	BudgetExpansions int           `json:"budget_expansions,omitempty"`
	CacheHit         bool          `json:"cache_hit,omitempty"`
	Deduped          bool          `json:"deduped,omitempty"`
	PoolReused       bool          `json:"pool_reused,omitempty"`
	Stages           []StageReport `json:"stages,omitempty"`
	Expansions       int64         `json:"expansions,omitempty"`
	Merges           int64         `json:"merges,omitempty"`
	Joins            int64         `json:"joins,omitempty"`
	JoinsSkipped     int64         `json:"joins_skipped,omitempty"`
	Bindings         int64         `json:"bindings,omitempty"`
	WalkSteps        int64         `json:"walk_steps,omitempty"`
	MemoHits         int64         `json:"memo_hits,omitempty"`
	MemoMisses       int64         `json:"memo_misses,omitempty"`
	WalkCacheHits    int64         `json:"walk_cache_hits,omitempty"`
	WalkCacheMisses  int64         `json:"walk_cache_misses,omitempty"`
	TruncatedBy      string        `json:"truncated_by,omitempty"`
}

// Report renders the trace. The cost is O(stages): one Report and one
// slice of the stages that actually ran.
func (t *Trace) Report() *Report {
	if t == nil {
		return nil
	}
	rep := &Report{
		Expansions:   t.expansions.Load(),
		Merges:       t.merges.Load(),
		Joins:        t.joins.Load(),
		JoinsSkipped: t.joinsSkip.Load(),
		Bindings:     t.bindings.Load(),
		WalkSteps:    t.walkSteps.Load(),
	}
	fl := t.flags.Load()
	rep.CacheHit = fl&flagCacheHit != 0
	rep.PoolReused = fl&flagPoolReused != 0
	for s := Stage(0); s < numStages; s++ {
		r := &t.stages[s]
		calls, ns := r.calls.Load(), r.ns.Load()
		if calls == 0 && ns == 0 {
			continue
		}
		rep.Stages = append(rep.Stages, StageReport{
			Stage:      s.String(),
			DurationMS: float64(ns) / 1e6,
			Calls:      calls,
			Items:      r.items.Load(),
		})
	}
	if v := t.trunc.Load(); v != 0 {
		rep.TruncatedBy = Stage(v>>8&0xff).String() + ":" + TruncCause(v&0xff).String()
	}
	return rep
}
