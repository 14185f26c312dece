package rex

// Tests for the anytime query budget at the facade: truncated results
// are honest prefixes of the exhaustive answer, unbudgeted queries are
// unaffected, and budgeted results interact safely with the cache.

import (
	"context"
	"testing"
	"time"
)

// TestExplainBudgetedSubset checks the facade budget contract on the
// default measure: a generous expansion budget reproduces the
// unbudgeted result exactly (Truncated false), and a tight one returns
// Truncated=true with every explanation drawn from the exhaustive
// explanation set, deterministically across repeated runs.
func TestExplainBudgetedSubset(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	p := samplePairs[0]
	full, err := ex.Explain(p.Start, p.End)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatal("unbudgeted result is marked truncated")
	}

	// Generous budget: must match the exhaustive result byte for byte.
	res, err := ex.ExplainBudgeted(context.Background(), p.Start, p.End, Budget{MaxExpansions: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("generous budget truncated")
	}
	if !resultsEqual(res, full) {
		t.Fatal("generous budget changed the result")
	}

	// The exhaustive pattern universe: everything the unbudgeted query
	// could rank, not just its top-k.
	exAll, err := NewExplainer(kb, Options{TopK: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	fullAll, err := exAll.Explain(p.Start, p.End)
	if err != nil {
		t.Fatal(err)
	}
	universe := map[string]bool{}
	for _, e := range fullAll.Explanations {
		universe[e.Pattern] = true
	}

	sawTruncated := false
	for budget := 1; budget <= 64; budget *= 4 {
		b := Budget{MaxExpansions: budget}
		res1, err := ex.ExplainBudgeted(context.Background(), p.Start, p.End, b)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := ex.ExplainBudgeted(context.Background(), p.Start, p.End, b)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(res1, res2) || res1.Truncated != res2.Truncated {
			t.Fatalf("budget %d: repeated budgeted queries disagree", budget)
		}
		if res1.Truncated {
			sawTruncated = true
		}
		for _, e := range res1.Explanations {
			if !universe[e.Pattern] {
				t.Fatalf("budget %d: pattern %q not in the exhaustive explanation set", budget, e.Pattern)
			}
		}
	}
	if !sawTruncated {
		t.Fatal("budget sweep never truncated; the test exercised nothing")
	}
}

// TestExplainBudgetTimeout checks the wall-clock budget: an effectively
// zero timeout returns a truncated result promptly without error, and
// timeout-budgeted results bypass the cache (they are wall-clock
// dependent) while leaving unbudgeted entries untouched.
func TestExplainBudgetTimeout(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{TopK: 10, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := samplePairs[0]

	res, err := ex.ExplainBudgeted(context.Background(), p.Start, p.End, Budget{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("nanosecond budget did not truncate")
	}
	if st := ex.CacheStats(); st.Entries != 0 {
		t.Fatalf("timeout-budgeted result was cached: %+v", st)
	}

	// The unbudgeted query must compute fresh and cache normally.
	full, err := ex.Explain(p.Start, p.End)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatal("unbudgeted result truncated after a budgeted query")
	}
	if st := ex.CacheStats(); st.Entries != 1 {
		t.Fatalf("unbudgeted result not cached: %+v", st)
	}

	// An expansion budget is deterministic and caches under its own key:
	// it must never serve for (or be served from) the unbudgeted entry.
	bres, err := ex.ExplainBudgeted(context.Background(), p.Start, p.End, Budget{MaxExpansions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bres.Truncated {
		t.Fatal("one-expansion budget did not truncate")
	}
	if st := ex.CacheStats(); st.Entries != 2 {
		t.Fatalf("expansion-budgeted result not cached separately: %+v", st)
	}
	again, err := ex.Explain(p.Start, p.End)
	if err != nil {
		t.Fatal(err)
	}
	if again != full {
		t.Fatal("unbudgeted cache entry was displaced by the budgeted one")
	}

	// A timeout-budgeted query that finishes untruncated is identical to
	// the unbudgeted answer and must cache (under its own key): a server
	// default wall-clock budget must not turn the cache into dead weight
	// for the pairs that finish inside it.
	tres, err := ex.ExplainBudgeted(context.Background(), p.Start, p.End, Budget{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if tres.Truncated {
		t.Fatal("one-minute budget truncated a sample-KB query")
	}
	if st := ex.CacheStats(); st.Entries != 3 {
		t.Fatalf("untruncated timeout-budgeted result not cached: %+v", st)
	}
	tagain, err := ex.ExplainBudgeted(context.Background(), p.Start, p.End, Budget{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if tagain != tres {
		t.Fatal("untruncated timeout-budgeted result not served from cache")
	}
}

// TestExpiredTimeoutTruncatesPathSearch: a Timeout that has ended before
// the path search starts stops the query there, on every ranking route
// (anti-monotone, Limited and general): no expansion, no merge, the
// truncation attributed to the path search, and no error. The join's
// own first poll comes only at its 256th expansion, past the end of
// every sample pair's search, so only the check before the join makes
// this hold.
func TestExpiredTimeoutTruncatesPathSearch(t *testing.T) {
	for _, m := range []string{"size", "local-dist", "size+local-dist", "count"} {
		ex, err := NewExplainer(SampleKB(), Options{Measure: m, TopK: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range samplePairs {
			res, err := ex.ExplainBudgeted(WithTrace(context.Background()), p.Start, p.End, Budget{Timeout: time.Nanosecond})
			if err != nil {
				t.Fatalf("%s %s/%s: %v", m, p.Start, p.End, err)
			}
			tr := res.Trace
			if !res.Truncated || tr.TruncatedBy != "enumerate:deadline" || tr.Expansions != 0 || tr.Merges != 0 {
				t.Errorf("%s %s/%s: truncated=%v by %q after %d expansions and %d merges; want enumerate:deadline, 0 and 0",
					m, p.Start, p.End, res.Truncated, tr.TruncatedBy, tr.Expansions, tr.Merges)
			}
		}
	}
}

// TestOptionsBudgetSQLIgnored: SQL is asked for per request only
// (Request.SQL), so Explain and BatchExplain put SQL in no answer whose
// request did not ask for it, and in every answer whose request did.
func TestOptionsBudgetSQLIgnored(t *testing.T) {
	ex, err := NewExplainer(SampleKB(), Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explain("brad_pitt", "angelina_jolie")
	if err != nil {
		t.Fatal(err)
	}
	reqs := requests(samplePairs)
	reqs[0].SQL = true
	out := ex.BatchExplain(context.Background(), reqs, BatchOptions{})
	results := []*Result{res}
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("pair %d: %v", i, br.Err)
		}
		results = append(results, br.Result)
	}
	for i, r := range results {
		if len(r.Explanations) == 0 {
			t.Fatalf("result %d: no explanations", i)
		}
		wantSQL := i == 1 // the batch's first request asked
		for _, e := range r.Explanations {
			if (e.SQL != "") != wantSQL {
				t.Errorf("result %d: SQL %q, want SQL %v", i, e.SQL, wantSQL)
			}
		}
	}
}

// TestBatchExplainBudget checks budget plumbing through BatchExplain:
// a request's own bounds truncate every heavy pair and per-pair Elapsed
// is populated. A request that only asks for SQL bounds nothing, so it
// runs under the explainer's default budget, with SQL. Six expansions is
// the smallest cap that truncates every sample pair and leaves each an
// explanation to carry it.
func TestBatchExplainBudget(t *testing.T) {
	kb := SampleKB()
	for _, tc := range []struct {
		name    string
		def     Budget
		req     Request
		wantSQL bool
	}{
		{"request budget", Budget{}, Request{Budget: Budget{MaxExpansions: 1}}, false},
		{"default budget, sql", Budget{MaxExpansions: 6}, Request{SQL: true}, true},
	} {
		ex, err := NewExplainer(kb, Options{TopK: 10, Budget: tc.def})
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]Request, len(samplePairs))
		for i, p := range samplePairs {
			reqs[i] = tc.req
			reqs[i].Pair = p
		}
		out := ex.BatchExplain(context.Background(), reqs, BatchOptions{})
		for i, br := range out {
			if br.Err != nil {
				t.Fatalf("%s, pair %d: %v", tc.name, i, br.Err)
			}
			if !br.Result.Truncated {
				t.Errorf("%s, pair %d: the budget did not truncate", tc.name, i)
			}
			if br.Elapsed <= 0 {
				t.Errorf("%s, pair %d: Elapsed not populated", tc.name, i)
			}
			if tc.wantSQL && len(br.Result.Explanations) == 0 {
				t.Errorf("%s, pair %d: no explanations to carry SQL", tc.name, i)
			}
			for _, e := range br.Result.Explanations {
				if (e.SQL != "") != tc.wantSQL {
					t.Errorf("%s, pair %d: SQL %q", tc.name, i, e.SQL)
				}
			}
		}
	}
}

// TestRequestResolution holds every facade entrypoint to one rule: a
// request that bounds nothing runs under Options.Budget, one that sets
// a bound runs under its own, and the cache keys on the bounds the
// query ran under, not on how the request spelled them. The default is
// the smallest cap that truncates the pair and leaves an explanation.
func TestRequestResolution(t *testing.T) {
	def := Budget{MaxExpansions: 6}
	ex, err := NewExplainer(SampleKB(), Options{TopK: 10, Budget: def, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := samplePairs[0]
	ctx := context.Background()
	truncatedWithSQL := func(how string, res *Result) {
		t.Helper()
		if !res.Truncated {
			t.Errorf("%s: a zero-bound request did not run under the default budget", how)
		}
		if len(res.Explanations) == 0 || res.Explanations[0].SQL == "" {
			t.Errorf("%s: no SQL on a request that asked for it", how)
		}
	}

	res, err := ex.Query(ctx, Request{Pair: p, SQL: true})
	if err != nil {
		t.Fatal(err)
	}
	truncatedWithSQL("Query", res)
	out := ex.BatchExplain(ctx, []Request{{Pair: p, SQL: true}}, BatchOptions{})
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	truncatedWithSQL("BatchExplain", out[0].Result)
	res, err = ex.ExplainBudgeted(ctx, p.Start, p.End, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("ExplainBudgeted: a zero budget did not run under the default budget")
	}

	// A request's own bound overrides the default.
	own, err := ex.Query(ctx, Request{Pair: p, Budget: Budget{MaxExpansions: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := NewExplainer(SampleKB(), Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	full, err := unbounded.Explain(p.Start, p.End)
	if err != nil {
		t.Fatal(err)
	}
	if own.Truncated || !resultsEqual(own, full) {
		t.Error("a request's own bound did not override the default budget")
	}

	// The default spelled out is the same query as the default implied.
	implied, err := ex.Query(ctx, Request{Pair: p})
	if err != nil {
		t.Fatal(err)
	}
	before := ex.CacheStats()
	spelled, err := ex.Query(ctx, Request{Pair: p, Budget: def})
	if err != nil {
		t.Fatal(err)
	}
	if st := ex.CacheStats(); spelled != implied || st.Hits != before.Hits+1 || st.Entries != before.Entries {
		t.Errorf("the default bounds spelled out missed the implied default's entry: before %+v, after %+v", before, st)
	}
}
