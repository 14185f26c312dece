package rex

// Tests for the concurrent query surface: many goroutines against one
// knowledge base (run with -race), context cancellation aborting queries
// mid-flight, batch fan-out with per-pair error isolation, and the LRU
// result cache. See DESIGN.md for the concurrency model.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// samplePairs are well-connected pairs of the sample KB used across the
// concurrency tests.
var samplePairs = []Pair{
	{Start: "brad_pitt", End: "angelina_jolie"},
	{Start: "kate_winslet", End: "leonardo_dicaprio"},
	{Start: "tom_cruise", End: "nicole_kidman"},
	{Start: "brad_pitt", End: "george_clooney"},
}

// requests wraps each pair in a Request that bounds nothing.
func requests(pairs []Pair) []Request {
	out := make([]Request, len(pairs))
	for i, p := range pairs {
		out[i] = Request{Pair: p}
	}
	return out
}

// resultsEqual compares the rendered explanation lists of two results.
func resultsEqual(a, b *Result) bool {
	if len(a.Explanations) != len(b.Explanations) {
		return false
	}
	for i := range a.Explanations {
		ea, eb := a.Explanations[i], b.Explanations[i]
		if ea.Pattern != eb.Pattern || ea.Description != eb.Description ||
			ea.NumInstances != eb.NumInstances {
			return false
		}
	}
	return true
}

// TestConcurrentExplainContext hammers one explainer (and its cache)
// from many goroutines and checks every result against the serial
// reference. Run with -race to verify the read-path concurrency safety
// of the shared knowledge base.
func TestConcurrentExplainContext(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{Measure: "size+local-dist", TopK: 5, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(samplePairs))
	for i, p := range samplePairs {
		if want[i], err = ex.Explain(p.Start, p.End); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 16
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (gr + r) % len(samplePairs)
				p := samplePairs[i]
				res, err := ex.ExplainContext(context.Background(), p.Start, p.End)
				if err != nil {
					errs <- err
					return
				}
				if !resultsEqual(res, want[i]) {
					errs <- errors.New("concurrent result differs from serial reference for " + p.Start + "/" + p.End)
					return
				}
			}
		}(gr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExplainContextPreCancelled checks that an already-cancelled context
// is rejected before any work happens.
func TestExplainContextPreCancelled(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ex.ExplainContext(ctx, "brad_pitt", "angelina_jolie")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExplainContextDeadline proves an expired deadline aborts a heavy
// query mid-flight and promptly: the workload below (a global measure
// over 100 sampled starts) takes far longer than the 5ms deadline when
// run to completion.
func TestExplainContextDeadline(t *testing.T) {
	kb := GenerateKB(GenOptions{Scale: 1, Seed: 3})
	ex, err := NewExplainer(kb, Options{
		Measure:       "global-dist",
		GlobalSamples: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A densely connected pair: two actors sharing films exist at every
	// scale; pick the first pair that has any explanation at all using a
	// quick connectedness probe.
	names := kb.Entities("actor")
	var start, end string
	for i := 0; i < len(names) && start == ""; i++ {
		for j := i + 1; j < len(names) && j < i+20; j++ {
			if c, _ := kb.Connectedness(names[i], names[j], 4); c > 30 {
				start, end = names[i], names[j]
				break
			}
		}
	}
	if start == "" {
		t.Skip("no connected actor pair found at this scale")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = ex.ExplainContext(ctx, start, end)
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %v, want context.DeadlineExceeded", err, elapsed)
	}
	// The abort must be prompt: bounded-interval checks mean we allow a
	// generous margin over the 5ms deadline, but nowhere near the
	// multi-second full query.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestBatchExplain checks input-order results, per-pair error isolation
// and equality with serial queries, duplicate pairs included.
func TestBatchExplain(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{Measure: "size", TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{
		samplePairs[0],
		{Start: "ghost", End: "brad_pitt"}, // isolated failure
		samplePairs[1],
		{Start: "brad_pitt", End: "brad_pitt"}, // isolated failure
		samplePairs[2],
	}
	out := ex.BatchExplain(context.Background(), requests(pairs), BatchOptions{Concurrency: 3})
	if len(out) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(out), len(pairs))
	}
	for i, br := range out {
		if br.Pair != pairs[i] {
			t.Errorf("slot %d holds pair %+v, want %+v", i, br.Pair, pairs[i])
		}
	}
	if !errors.Is(out[1].Err, ErrUnknownEntity) {
		t.Errorf("pair 1: err = %v, want ErrUnknownEntity", out[1].Err)
	}
	if out[3].Err == nil {
		t.Error("pair 3: identical pair accepted")
	}
	for _, i := range []int{0, 2, 4} {
		if out[i].Err != nil {
			t.Errorf("pair %d: unexpected error %v", i, out[i].Err)
			continue
		}
		want, err := ex.Explain(pairs[i].Start, pairs[i].End)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(out[i].Result, want) {
			t.Errorf("pair %d: batch result differs from serial", i)
		}
	}

	// Duplicate pairs running at the same time each compute their own
	// answer, and every slot must equal the serial one.
	var dups []Pair
	for i := 0; i < 8; i++ {
		dups = append(dups, samplePairs[0], samplePairs[1])
	}
	out = ex.BatchExplain(context.Background(), requests(dups), BatchOptions{Concurrency: len(dups)})
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("duplicate slot %d: %v", i, br.Err)
		}
		want, err := ex.Explain(br.Pair.Start, br.Pair.End)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(br.Result, want) {
			t.Errorf("duplicate slot %d (%v): batch result differs from serial", i, br.Pair)
		}
	}

	// A cancelled batch context marks every pair with the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out = ex.BatchExplain(ctx, requests(pairs[:2]), BatchOptions{})
	for i, br := range out {
		if !errors.Is(br.Err, context.Canceled) {
			t.Errorf("cancelled batch pair %d: err = %v", i, br.Err)
		}
	}
}

// TestResultCache checks hit/miss accounting, eviction order and that
// hits return the stored result.
func TestResultCache(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{Measure: "size", TopK: 5, CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ex.Explain(samplePairs[0].Start, samplePairs[0].End)
	if err != nil {
		t.Fatal(err)
	}
	r1again, err := ex.Explain(samplePairs[0].Start, samplePairs[0].End)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r1again {
		t.Error("cache hit did not return the stored result")
	}
	st := ex.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Capacity != 2 {
		t.Errorf("stats after hit = %+v", st)
	}

	// Fill past capacity: pair 0 was least recently used after querying
	// pairs 1 and 2, so it must be evicted and miss again.
	if _, err := ex.Explain(samplePairs[1].Start, samplePairs[1].End); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Explain(samplePairs[2].Start, samplePairs[2].End); err != nil {
		t.Fatal(err)
	}
	if st := ex.CacheStats(); st.Entries != 2 {
		t.Errorf("entries = %d, want capacity-bounded 2", st.Entries)
	} else if st.Evictions != 1 {
		t.Errorf("evictions = %d after one displacement, want 1", st.Evictions)
	}
	if _, err := ex.Explain(samplePairs[0].Start, samplePairs[0].End); err != nil {
		t.Fatal(err)
	}
	st = ex.CacheStats()
	if st.Hits != 1 || st.Misses != 4 {
		t.Errorf("stats after eviction = %+v, want 1 hit / 4 misses", st)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (pair 0 then pair 1 displaced)", st.Evictions)
	}

	// Uncached explainer reports zero stats.
	plain, err := NewExplainer(kb, Options{Measure: "size"})
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.CacheStats(); st != (CacheStats{}) {
		t.Errorf("uncached stats = %+v, want zero", st)
	}
}

// TestPooledEnumerationDeterminismUnderBatch drives concurrent
// BatchExplain traffic over one explainer — every query checking out
// private enumeration state from the per-snapshot pool — and requires
// each pair's result to be byte-identical to its serial reference on
// every round. With -race this also proves pooled join, grouping and
// merge buffers are never shared between in-flight queries.
func TestPooledEnumerationDeterminismUnderBatch(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Serial references first (also warms the pools).
	want := make([]*Result, len(samplePairs))
	for i, p := range samplePairs {
		r, err := ex.Explain(p.Start, p.End)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		want[i] = r
	}
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		res := ex.BatchExplain(context.Background(), requests(samplePairs), BatchOptions{Concurrency: 4})
		if len(res) != len(samplePairs) {
			t.Fatalf("round %d: %d results for %d pairs", round, len(res), len(samplePairs))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("round %d pair %v: %v", round, samplePairs[i], r.Err)
			}
			if !resultsEqual(r.Result, want[i]) {
				t.Fatalf("round %d pair %v: pooled result diverged from serial reference", round, samplePairs[i])
			}
		}
	}
}

// TestExplainWhileNodesGrow runs the distributional measures — whose
// kernel counts per end entity in a pooled array indexed by node ID —
// while Store.Apply keeps adding entities next to the queried pair. Node
// IDs are append-only, so a counter sized for generation n would be
// indexed out of range by generation n+1's new ends; run with -race.
// Every answer must equal a cold recomputation on its own snapshot.
func TestExplainWhileNodesGrow(t *testing.T) {
	for _, m := range []string{"size+local-dist", "global-dist"} {
		t.Run(m, func(t *testing.T) {
			opt := Options{Measure: m, TopK: 10, CacheSize: 0, GlobalSamples: 8}
			st := mustStore(t, clusteredKB(t, 4), opt)
			const deltas = 40
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						snap := st.Current()
						got, err := snap.Explainer.Explain("s1", "t1")
						if err != nil {
							t.Error(err)
							return
						}
						cold, err := NewExplainer(snap.KB, opt)
						if err != nil {
							t.Error(err)
							return
						}
						if want, err := cold.Explain("s1", "t1"); err != nil || !resultsEqual(got, want) {
							t.Errorf("generation %d: answer differs from a cold recomputation (%v)", snap.Generation, err)
							return
						}
					}
				}()
			}
			for i := 0; i < deltas; i++ {
				// A new entity two hops from s1 is a new end of the local
				// distribution; one next to s1 is a new first step.
				d := fmt.Sprintf("node\tgrow_a%d\tperson\nnode\tgrow_b%d\tperson\nedge\tm11\tgrow_a%d\trel\nedge\ts1\tgrow_b%d\trel\n", i, i, i, i)
				if _, err := st.Apply(strings.NewReader(d)); err != nil {
					t.Fatal(err)
				}
			}
			close(done)
			wg.Wait()
		})
	}
}
