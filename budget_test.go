package rex

// Tests for the anytime query budget at the facade: a Timeout truncates
// without error, a request's bound resolves against Options.Budget, and
// budgeted queries share the unbudgeted query's cache entry while a
// truncated answer is never stored.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"rex/internal/measure"
	"rex/internal/pattern"
)

// TestExplainBudgetTimeout checks the wall-clock budget: an effectively
// zero timeout returns a truncated result promptly without error, and
// timeout-truncated results bypass the cache (they are wall-clock
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

	// A timeout-budgeted query is answered from the pair's one entry: a
	// server default wall-clock budget must not turn the cache into
	// dead weight for the pairs that finish inside it.
	tres, err := ex.ExplainBudgeted(context.Background(), p.Start, p.End, Budget{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if tres != full {
		t.Fatal("timeout-budgeted query not served from the unbudgeted entry")
	}
	if st := ex.CacheStats(); st.Entries != 1 {
		t.Fatalf("timeout-budgeted query added an entry: %+v", st)
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
// a request's own Timeout truncates every pair and per-pair Elapsed is
// populated. A request that only asks for SQL bounds nothing, so it
// runs under the explainer's default budget, with SQL. The measure
// stalls at each query's stallEval-th evaluation until the Timeout
// ends, so every pair is cut with the explanations scored before it;
// tom_cruise→nicole_kidman is left out, as it has only two explanations
// to score.
func TestBatchExplainBudget(t *testing.T) {
	kb := SampleKB()
	pairs := []Pair{samplePairs[0], samplePairs[1], samplePairs[3]}
	bound := Budget{Timeout: stallTimeout}
	for _, tc := range []struct {
		name    string
		def     Budget
		req     Request
		wantSQL bool
	}{
		{"request budget", Budget{}, Request{Budget: bound}, false},
		{"default budget, sql", bound, Request{SQL: true}, true},
	} {
		ex, err := NewExplainer(kb, Options{TopK: 10, Budget: tc.def})
		if err != nil {
			t.Fatal(err)
		}
		stallAt(ex, stallEval)
		reqs := make([]Request, len(pairs))
		for i, p := range pairs {
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
			if len(br.Result.Explanations) == 0 {
				t.Errorf("%s, pair %d: no explanations scored before the cut", tc.name, i)
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
// request that sets no Timeout runs under Options.Budget, and one that
// sets a Timeout runs under its own. The default's cut comes in the
// measure stage, where the measure stalls (stallAt); a request's own
// Timeout that has already ended cuts the path search instead, so the
// trace tells the two bounds apart. No truncated answer is cached.
func TestRequestResolution(t *testing.T) {
	def := Budget{Timeout: stallTimeout}
	ex, err := NewExplainer(SampleKB(), Options{TopK: 10, Budget: def, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	stallAt(ex, stallEval)
	p := samplePairs[0]
	ctx := context.Background()
	underDefault := func(how string, res *Result, sql bool) {
		t.Helper()
		if !res.Truncated || res.Trace != nil && res.Trace.TruncatedBy != "measure:deadline" {
			t.Errorf("%s: a request without a Timeout did not run under the default budget", how)
		}
		if len(res.Explanations) == 0 {
			t.Fatalf("%s: no explanations scored before the cut", how)
		}
		if (res.Explanations[0].SQL != "") != sql {
			t.Errorf("%s: SQL %q on a request that asked for SQL %v", how, res.Explanations[0].SQL, sql)
		}
	}

	res, err := ex.Query(WithTrace(ctx), Request{Pair: p, SQL: true})
	if err != nil {
		t.Fatal(err)
	}
	underDefault("Query", res, true)
	if res.Trace.BudgetMS != int64(def.Timeout/time.Millisecond) {
		t.Errorf("Query: trace budget %d ms, want the default's %d", res.Trace.BudgetMS, def.Timeout/time.Millisecond)
	}
	out := ex.BatchExplain(ctx, []Request{{Pair: p, SQL: true}}, BatchOptions{})
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	underDefault("BatchExplain", out[0].Result, true)
	res, err = ex.ExplainBudgeted(ctx, p.Start, p.End, Budget{Timeout: -time.Second})
	if err != nil {
		t.Fatal(err)
	}
	underDefault("ExplainBudgeted, negative Timeout", res, false)

	// A request's own bound overrides the default.
	own, err := ex.Query(WithTrace(ctx), Request{Pair: p, Budget: Budget{Timeout: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	if !own.Truncated || own.Trace.TruncatedBy != "enumerate:deadline" || own.Trace.BudgetMS != 0 {
		t.Errorf("a request's own Timeout did not override the default: truncated=%v by %q under %d ms",
			own.Truncated, own.Trace.TruncatedBy, own.Trace.BudgetMS)
	}
	if st := ex.CacheStats(); st.Entries != 0 {
		t.Errorf("a truncated answer was cached: %+v", st)
	}
}

// TestBudgetedQueriesShareCacheEntry: a pair has one cache entry (and
// one with SQL) whatever budget its queries run under, because only an
// untruncated answer is stored and it is the unbudgeted answer. A
// Timeout-budgeted query after an unbudgeted one is a hit on the same
// result, and so is an unbudgeted query after a budgeted one that
// finished; a Timeout-truncated answer is never stored and never
// displaces the entry.
func TestBudgetedQueriesShareCacheEntry(t *testing.T) {
	ctx := context.Background()
	plain := Request{Pair: samplePairs[0]}
	budgeted := Request{Pair: samplePairs[0], Budget: Budget{Timeout: time.Minute}}
	expired := Request{Pair: samplePairs[0], Budget: Budget{Timeout: time.Nanosecond}}
	for _, order := range [][2]Request{{plain, budgeted}, {budgeted, plain}} {
		ex, err := NewExplainer(SampleKB(), Options{TopK: 10, CacheSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := ex.Query(ctx, expired); err != nil || !res.Truncated {
			t.Fatalf("expired budget: truncated=%v err=%v", res != nil && res.Truncated, err)
		}
		if st := ex.CacheStats(); st.Entries != 0 {
			t.Fatalf("a truncated answer was cached: %+v", st)
		}
		first, err := ex.Query(ctx, order[0])
		if err != nil {
			t.Fatal(err)
		}
		before := ex.CacheStats()
		second, err := ex.Query(ctx, order[1])
		if err != nil {
			t.Fatal(err)
		}
		st := ex.CacheStats()
		if first.Truncated || second != first || st.Hits != before.Hits+1 || st.Entries != 1 {
			t.Errorf("Timeout %v then %v: not one entry served twice: before %+v, after %+v",
				order[0].Timeout, order[1].Timeout, before, st)
		}
		a, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := json.Marshal(second); err != nil || !bytes.Equal(a, b) {
			t.Errorf("Timeout %v then %v: the hit's bytes differ", order[0].Timeout, order[1].Timeout)
		}
		if res, err := ex.Query(ctx, expired); err != nil || res != first {
			t.Errorf("an expired budget after the entry was stored did not hit it: err=%v", err)
		}
		if st := ex.CacheStats(); st.Entries != 1 {
			t.Errorf("entries after the queries: %+v, want 1", st)
		}
	}
}

// stallTimeout is the Timeout the stalled queries run under, and
// stallEval the evaluation they stall at: long and late enough that a
// loaded host under the race detector enumerates and scores stallEval−1
// explanations of a sample pair before the Timeout ends.
const (
	stallTimeout = 250 * time.Millisecond
	stallEval    = 4
)

// stallMeasure wraps an explainer's measure so that the n-th evaluation
// of each query waits for the query's context to end: under a Timeout
// the query is cut in its measure stage, whatever the host's speed,
// with the explanations scored before it. It counts per query (one
// measure.Context each) and is safe on both ranking lanes. Installed
// without a Timeout, the n-th evaluation waits for good.
type stallMeasure struct {
	measure.Measure
	n     int
	mu    sync.Mutex
	evals map[*measure.Context]int
}

func (s *stallMeasure) Score(ctx *measure.Context, ex *pattern.Explanation) measure.Score {
	s.wait(ctx)
	return s.Measure.Score(ctx, ex)
}

func (s *stallMeasure) wait(ctx *measure.Context) {
	s.mu.Lock()
	s.evals[ctx]++
	stall := s.evals[ctx] == s.n
	s.mu.Unlock()
	if stall {
		<-ctx.Context().Done()
	}
}

// stallLimited is stallMeasure over a measure.Limited, which stays one,
// so the explainer keeps its pruned ranking route.
type stallLimited struct{ *stallMeasure }

func (s stallLimited) ScoreWithLimit(ctx *measure.Context, ex *pattern.Explanation, threshold measure.Score) (measure.Score, bool) {
	s.wait(ctx)
	return s.Measure.(measure.Limited).ScoreWithLimit(ctx, ex, threshold)
}

// stallAt makes the n-th evaluation of each of ex's queries stall.
func stallAt(ex *Explainer, n int) {
	s := &stallMeasure{Measure: ex.m, n: n, evals: map[*measure.Context]int{}}
	if _, ok := ex.m.(measure.Limited); ok {
		ex.m = stallLimited{s}
	} else {
		ex.m = s
	}
}
