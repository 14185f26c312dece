package rex

// Tests for the query-path tracing layer: the trace must be free when
// absent (the alloc budgets of BenchmarkMatchCount and BenchmarkExplain
// hold with no trace on the context), O(stages) when present, and its
// report must attribute work
// and truncation to the right pipeline stages.

import (
	"context"
	"testing"
	"time"

	"rex/internal/enumerate"
	"rex/internal/kbgen"
	"rex/internal/match"
)

// traceBenchExplainer builds the explainer of BenchmarkExplain's
// end-to-end query (uncached, so every query walks the full pipeline).
func traceBenchExplainer(t *testing.T) *Explainer {
	t.Helper()
	ex, err := NewExplainer(SampleKB(), Options{Measure: "size+local-dist", TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestTracingOffAllocBudgets pins the zero-cost-when-off contract
// against the allocation counts measured before instrumentation: with
// no trace on the context, the instrumented hot paths must not allocate
// more than they did then (match_count: 0 allocs/op,
// explain_end_to_end: 1195 allocs/op).
func TestTracingOffAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations; counts are not meaningful")
	}
	t.Run("match_count", func(t *testing.T) {
		g := kbgen.Sample()
		s := g.NodeByName("brad_pitt")
		e := g.NodeByName("angelina_jolie")
		es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, enumerate.Config{MaxPatternSize: 5})
		p := es[len(es)-1].P
		ctx := context.Background()
		if _, err := match.CountContext(ctx, g, p, s, e); err != nil {
			t.Fatal(err) // warm the matcher pool
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := match.CountContext(ctx, g, p, s, e); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("untraced match.CountContext allocates %.0f times per op; baseline is 0", allocs)
		}
	})
	t.Run("explain_end_to_end", func(t *testing.T) {
		ex := traceBenchExplainer(t)
		if _, err := ex.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ex.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1195 {
			t.Errorf("untraced Explain allocates %.0f times per op; pre-instrumentation baseline is 1195", allocs)
		}
	})
}

// TestTracingOnAllocBound bounds the tracing overhead: a traced query
// may add only the O(stages) report materialisation — the trace itself,
// the report, its stage slice and the result copy — never per-expansion
// or per-instance work.
func TestTracingOnAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations; counts are not meaningful")
	}
	ex := traceBenchExplainer(t)
	if _, err := ex.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
		t.Fatal(err)
	}
	off := testing.AllocsPerRun(20, func() {
		if _, err := ex.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
			t.Fatal(err)
		}
	})
	on := testing.AllocsPerRun(20, func() {
		ctx := WithTrace(context.Background())
		res, err := ex.ExplainBudgeted(ctx, "kate_winslet", "leonardo_dicaprio", Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("traced query returned no trace")
		}
	})
	const bound = 16 // trace + context + report + stage slice + result copy
	if on-off > bound {
		t.Errorf("tracing adds %.0f allocs per query (off %.0f, on %.0f); want ≤ %d",
			on-off, off, on, bound)
	}
}

// TestTraceReportContents checks the report of a full uncached query:
// every pipeline stage that ran is present with plausible numbers, and
// untraced queries carry no report at all.
func TestTraceReportContents(t *testing.T) {
	ex := traceBenchExplainer(t)

	res, err := ex.Explain("kate_winslet", "leonardo_dicaprio")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced query carries a trace report")
	}

	ctx := WithTrace(context.Background())
	b := Budget{Timeout: time.Minute, MaxExpansions: 1 << 20}
	res, err = ex.ExplainBudgeted(ctx, "kate_winslet", "leonardo_dicaprio", b)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("traced query returned no trace")
	}
	if tr.TotalMS <= 0 {
		t.Errorf("TotalMS = %v, want > 0", tr.TotalMS)
	}
	if tr.BudgetMS != int64(b.Timeout/time.Millisecond) || tr.BudgetExpansions != b.MaxExpansions {
		t.Errorf("budget echo = (%d ms, %d exp), want (%d, %d)",
			tr.BudgetMS, tr.BudgetExpansions, int64(b.Timeout/time.Millisecond), b.MaxExpansions)
	}
	stages := map[string]bool{}
	for _, st := range tr.Stages {
		stages[st.Stage] = true
		if st.Calls <= 0 {
			t.Errorf("stage %s: calls = %d, want > 0", st.Stage, st.Calls)
		}
	}
	for _, want := range []string{"enumerate", "measure"} {
		if !stages[want] {
			t.Errorf("trace has no %s stage; stages = %v", want, tr.Stages)
		}
	}
	if tr.Expansions <= 0 {
		t.Errorf("Expansions = %d, want > 0", tr.Expansions)
	}
	// Every merge attempt between two explanations with a free variable
	// each tests every pair of their free variables for a shared binding:
	// a pair with none counts as skipped, and a candidate mapping through
	// pairs that all share one is joined. On this pair both happen.
	if tr.Merges <= 0 || tr.Joins <= 0 || tr.JoinsSkipped <= 0 {
		t.Errorf("Merges = %d, Joins = %d, JoinsSkipped = %d, want all > 0", tr.Merges, tr.Joins, tr.JoinsSkipped)
	}
	if tr.CacheHit || tr.Deduped {
		t.Errorf("uncached solo query reports CacheHit=%v Deduped=%v", tr.CacheHit, tr.Deduped)
	}
	if tr.TruncatedBy != "" {
		t.Errorf("unbudget-bound query reports TruncatedBy=%q", tr.TruncatedBy)
	}
}

// TestTraceCountsKernelWork checks that the local-distribution kernel
// reports its work as counts: positioning every explanation of a pair
// walks its path patterns and binds the rest through the matcher.
func TestTraceCountsKernelWork(t *testing.T) {
	ex, err := NewExplainer(SampleKB(), Options{Measure: "local-dist", TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExplainBudgeted(WithTrace(context.Background()), "brad_pitt", "angelina_jolie", Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if tr := res.Trace; tr == nil || tr.Bindings <= 0 || tr.WalkSteps <= 0 {
		t.Errorf("trace %+v: want Bindings and WalkSteps > 0", tr)
	}
}

// TestTraceCacheHitFlag checks that a repeat query against a warm cache
// reports CacheHit on its own fresh trace, without the pipeline stages
// it never ran.
func TestTraceCacheHitFlag(t *testing.T) {
	ex, err := NewExplainer(SampleKB(), Options{Measure: "size", TopK: 5, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := samplePairs[0]

	first, err := ex.ExplainBudgeted(WithTrace(context.Background()), p.Start, p.End, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace == nil || first.Trace.CacheHit {
		t.Fatalf("cold query trace = %+v, want present and CacheHit=false", first.Trace)
	}

	second, err := ex.ExplainBudgeted(WithTrace(context.Background()), p.Start, p.End, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	tr := second.Trace
	if tr == nil || !tr.CacheHit {
		t.Fatalf("warm query trace = %+v, want CacheHit=true", tr)
	}
	if len(tr.Stages) != 0 {
		t.Errorf("cache hit ran stages %v, want none", tr.Stages)
	}
	if !resultsEqual(first, second) {
		t.Error("traced cache hit returned a different result than the cold query")
	}
}

// TestTraceTruncationAttribution pins budget attribution: a query
// strangled by a one-expansion budget must blame the enumerate stage's
// expansion budget, first-wins.
func TestTraceTruncationAttribution(t *testing.T) {
	ex := traceBenchExplainer(t)
	res, err := ex.ExplainBudgeted(WithTrace(context.Background()),
		"kate_winslet", "leonardo_dicaprio", Budget{MaxExpansions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("one-expansion budget did not truncate")
	}
	if res.Trace == nil {
		t.Fatal("traced query returned no trace")
	}
	if got := res.Trace.TruncatedBy; got != "enumerate:expansions" {
		t.Errorf("TruncatedBy = %q, want %q", got, "enumerate:expansions")
	}
}

// TestBatchTraced checks BatchOptions.Traced: every pair gets its own
// report. Without a cache every slot computes, duplicates included, so
// each report carries the stage timings of its own computation and
// neither the cache-hit nor the dedup flag.
func TestBatchTraced(t *testing.T) {
	ex, err := NewExplainer(SampleKB(), Options{Measure: "size", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}

	const dup = 4
	distinct := []Pair{samplePairs[0], samplePairs[1]}
	var pairs []Pair
	for i := 0; i < dup; i++ {
		pairs = append(pairs, distinct...)
	}

	out := ex.BatchExplain(context.Background(), requests(pairs),
		BatchOptions{Concurrency: len(pairs), Traced: true})

	seen := map[*QueryTrace]bool{}
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("slot %d: %v", i, br.Err)
		}
		tr := br.Result.Trace
		if tr == nil {
			t.Fatalf("slot %d: traced batch entry has no trace", i)
		}
		if seen[tr] {
			t.Errorf("slot %d shares its trace with another slot", i)
		}
		seen[tr] = true
		if tr.Deduped || tr.CacheHit {
			t.Errorf("slot %d reports Deduped=%v CacheHit=%v, want both false", i, tr.Deduped, tr.CacheHit)
		}
		if len(tr.Stages) == 0 {
			t.Errorf("slot %d carries no stage timings", i)
		}
	}

	// Untraced batches must stay trace-free.
	out = ex.BatchExplain(context.Background(), requests(distinct), BatchOptions{})
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("untraced slot %d: %v", i, br.Err)
		}
		if br.Result.Trace != nil {
			t.Errorf("untraced slot %d carries a trace", i)
		}
	}
}

// TestBuildInfo checks the public build-info surface the CLIs print.
func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" {
		t.Error("BuildInfo.GoVersion is empty")
	}
	if b.Revision == "" {
		t.Error("BuildInfo.Revision is empty")
	}
	if b.String() == "" {
		t.Error("BuildInfo.String() is empty")
	}
}
