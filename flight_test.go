package rex

// Tests for the single-flight query deduplication layer: concurrent
// identical (pair, budget) queries must share one computation — both at
// the flightGroup primitive level and end to end through BatchExplain
// (run with -race). See DESIGN.md's contention map.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFlightGroupCoalesces pins the primitive: N concurrent do() calls
// for one key run fn exactly once and all receive the same result. The
// leader is held inside fn until every caller has registered, so the
// coalescing is deterministic, not a scheduling accident.
func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	const callers = 8
	var computes atomic.Int32
	release := make(chan struct{})
	shared := &Result{Start: "a", End: "b"}

	var wg sync.WaitGroup
	results := make([]*Result, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.do(context.Background(), "k", func() (*Result, error) {
				computes.Add(1)
				<-release
				return shared, nil
			})
		}(i)
	}
	waitFor(t, "all callers to join the flight", func() bool { return g.totalWaiters() == callers })
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", n, callers)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != shared {
			t.Fatalf("caller %d did not receive the shared result", i)
		}
	}
	if got := g.deduped.Load(); got != callers-1 {
		t.Errorf("deduped = %d, want %d", got, callers-1)
	}
	if got := g.computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}

	// The flight table must be empty afterwards: entries live only
	// while a computation is in flight.
	if n := g.totalWaiters(); n != 0 {
		t.Errorf("%d waiters after completion, want 0", n)
	}
}

// TestFlightFollowerOwnContext checks that a follower whose context
// expires stops waiting with its own error while the leader keeps
// computing, and that a leader cancellation is not inherited: the
// follower retries and becomes the new leader.
func TestFlightFollowerOwnContext(t *testing.T) {
	g := newFlightGroup()
	release := make(chan struct{})
	leaderStarted := make(chan struct{})

	go g.do(context.Background(), "k", func() (*Result, error) {
		close(leaderStarted)
		<-release
		return &Result{}, nil
	})
	<-leaderStarted

	ctx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, err := g.do(ctx, "k", func() (*Result, error) { return &Result{}, nil })
		followerErr <- err
	}()
	waitFor(t, "follower to join", func() bool { return g.totalWaiters() == 2 })
	cancel()
	if err := <-followerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower got %v, want context.Canceled", err)
	}
	close(release) // leader finishes normally

	// Leader cancellation: followers with live contexts must retry, not
	// inherit the leader's context error.
	lctx, lcancel := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	go g.do(lctx, "k2", func() (*Result, error) {
		close(leaderIn)
		<-lctx.Done()
		return nil, lctx.Err()
	})
	<-leaderIn
	retried := make(chan *Result, 1)
	go func() {
		res, err := g.do(context.Background(), "k2", func() (*Result, error) {
			return &Result{Start: "retry"}, nil
		})
		if err != nil {
			t.Error(err)
		}
		retried <- res
	}()
	waitFor(t, "follower to join k2", func() bool { return g.totalWaiters() == 2 })
	lcancel()
	if res := <-retried; res == nil || res.Start != "retry" {
		t.Fatalf("follower did not retry after leader cancellation: %+v", res)
	}
}

// TestBatchExplainSingleFlight drives one BatchExplain containing each
// distinct pair many times over (run with -race): the single-flight
// layer must execute each distinct pair exactly once, with every
// duplicate slot sharing the leader's result pointer. Leaders are held
// until all workers have joined a flight, so every duplicate provably
// overlaps an in-flight computation.
func TestBatchExplainSingleFlight(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{Measure: "size", TopK: 5}) // no cache: dedup is flight-only
	if err != nil {
		t.Fatal(err)
	}

	const dup = 8
	distinct := []Pair{samplePairs[0], samplePairs[1]}
	var pairs []Pair
	for i := 0; i < dup; i++ {
		pairs = append(pairs, distinct...)
	}

	// The hook holds each leader until every batch worker has arrived at
	// the flight layer. The wait condition is the monotone cumulative
	// count (leader executions + follower joins), not the instantaneous
	// waiter count: the latter drops when the other key's flight
	// completes, which would strand a still-blocked leader.
	arrived := func() uint64 { return ex.flight.computes.Load() + ex.flight.deduped.Load() }
	testHookComputeStart = func(string) {
		deadline := time.Now().Add(10 * time.Second)
		for arrived() < uint64(len(pairs)) {
			if time.Now().After(deadline) {
				t.Error("timed out waiting for all workers to join")
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	defer func() { testHookComputeStart = nil }()

	out := ex.BatchExplain(context.Background(), pairs, BatchOptions{Concurrency: len(pairs)})

	if got := ex.flight.computes.Load(); got != uint64(len(distinct)) {
		t.Fatalf("batch with %d distinct pairs ran %d computations, want %d", len(distinct), got, len(distinct))
	}
	if got := ex.flight.deduped.Load(); got != uint64(len(pairs)-len(distinct)) {
		t.Errorf("deduped = %d, want %d", got, len(pairs)-len(distinct))
	}
	if st := ex.CacheStats(); st.Deduped != uint64(len(pairs)-len(distinct)) {
		t.Errorf("CacheStats.Deduped = %d, want %d", st.Deduped, len(pairs)-len(distinct))
	}
	byPair := map[Pair]*Result{}
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("slot %d: %v", i, br.Err)
		}
		if prev, ok := byPair[br.Pair]; ok {
			if br.Result != prev {
				t.Fatalf("slot %d: duplicate pair got a distinct result object", i)
			}
		} else {
			byPair[br.Pair] = br.Result
		}
	}
	// The coalesced results must still be correct.
	for p, res := range byPair {
		want, err := ex.Explain(p.Start, p.End)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(res, want) {
			t.Errorf("coalesced result for %v differs from serial reference", p)
		}
	}
}

// TestCacheHitAllocBound pins the facade fast path: with the sharded
// cache warm, a repeated Explain performs only key construction and one
// sharded lookup — sharding and single-flight must add no steady-state
// allocations (the key is one concatenation; the bound leaves one spare
// for a name long enough that strconv.Itoa of its length allocates).
func TestCacheHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations; counts are not meaningful")
	}
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{Measure: "size", TopK: 5, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := samplePairs[0]
	if _, err := ex.Explain(p.Start, p.End); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ex.Explain(p.Start, p.End); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("cache-hit Explain allocates %.0f times per op; want ≤ 2", allocs)
	}
}

// TestQueryKeyFormat holds the key to the bytes fmt used to build: the
// cache and single-flight both key on them, and the length prefixes are
// what keeps names holding the separators apart.
func TestQueryKeyFormat(t *testing.T) {
	var e Explainer
	names := []string{"a", "brad_pitt", "1:a", "a|x1|t2", "x:y|z", strings.Repeat("n", 100), ""}
	budgets := []Budget{{}, {MaxExpansions: 7}, {Timeout: 1500 * time.Millisecond}, {MaxExpansions: 400, Timeout: time.Nanosecond}}
	seen := map[string]string{}
	for _, start := range names {
		for _, end := range names {
			for _, b := range budgets {
				want := fmt.Sprintf("%d:%s%d:%s", len(start), start, len(end), end)
				if b.active() {
					want += fmt.Sprintf("|x%d|t%d", b.MaxExpansions, int64(b.Timeout))
				}
				got := e.queryKey(start, end, b)
				if got != want {
					t.Errorf("queryKey(%q, %q, %+v) = %q, want %q", start, end, b, got, want)
				}
				q := fmt.Sprintf("(%q, %q, %+v)", start, end, b)
				if prev, dup := seen[got]; dup {
					t.Errorf("queries %s and %s share the key %q", prev, q, got)
				}
				seen[got] = q
			}
		}
	}
}
