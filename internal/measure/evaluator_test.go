package measure

import (
	"context"
	"fmt"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/match"
	"rex/internal/pattern"
)

func evalFixture(t *testing.T) (*kb.Graph, *Evaluator, []*pattern.Explanation, kb.NodeID, kb.NodeID) {
	t.Helper()
	g := kbgen.Sample()
	g.Freeze()
	s := g.NodeByName("brad_pitt")
	e := g.NodeByName("angelina_jolie")
	es := enumerate.Explanations(g, s, e, enumerate.Config{
		MaxPatternSize: 5,
		PathAlg:        enumerate.PathPrioritized,
		UnionAlg:       enumerate.UnionPrune,
	})
	if len(es) == 0 {
		t.Fatal("no explanations on the sample KB")
	}
	return g, NewEvaluator(g), es, s, e
}

// TestEvaluatorCountMatchesMatcher checks the memoised pair counts.
func TestEvaluatorCountMatchesMatcher(t *testing.T) {
	g, ev, es, s, e := evalFixture(t)
	ctx := context.Background()
	for _, ex := range es {
		got, err := ev.Count(ctx, ex.P, s, e)
		if err != nil {
			t.Fatal(err)
		}
		if want := match.Count(g, ex.P, s, e); got != want {
			t.Fatalf("pattern %v: count %d, matcher %d", ex.P, got, want)
		}
		// Second call must hit the memo and agree.
		again, err := ev.Count(ctx, ex.P, s, e)
		if err != nil || again != got {
			t.Fatalf("memoised count diverged: %d vs %d (%v)", again, got, err)
		}
	}
}

// TestEvaluatorTableIsMemoised checks that the per-(pattern,start) table
// is computed once and shared.
func TestEvaluatorTableIsMemoised(t *testing.T) {
	_, ev, es, s, _ := evalFixture(t)
	ctx := context.Background()
	p := es[0].P
	t1, err := ev.CountByEnd(ctx, p, s)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ev.CountByEnd(ctx, p, s)
	if err != nil {
		t.Fatal(err)
	}
	// Same underlying map: a (test-only) write through one is visible
	// through the other. Restore it immediately.
	for k, v := range t1 {
		t1[k] = v + 1
		if t2[k] != v+1 {
			t.Fatal("second CountByEnd did not return the memoised table")
		}
		t1[k] = v
		break
	}
}

// TestEvaluatorCancellation checks that a cancelled context aborts
// evaluation without poisoning the memo.
func TestEvaluatorCancellation(t *testing.T) {
	_, ev, es, s, _ := evalFixture(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	p := es[len(es)-1].P
	if _, err := ev.CountByEnd(cancelled, p, s); err == nil {
		// Tiny patterns can finish before the first cancellation check;
		// that is fine — the contract is only that an error is never
		// memoised. Nothing to assert in that case.
		t.Log("evaluation completed before the cancellation check interval")
	}
	counts, err := ev.CountByEnd(context.Background(), p, s)
	if err != nil || counts == nil {
		t.Fatalf("post-cancellation evaluation failed: %v", err)
	}
}

// TestScoresIdenticalWithAndWithoutEvaluator locks the central
// correctness bar: every measure scores every explanation identically
// whether or not the context carries an evaluator.
func TestScoresIdenticalWithAndWithoutEvaluator(t *testing.T) {
	g, ev, es, s, e := evalFixture(t)
	bare := &Context{G: g, Start: s, End: e}
	shared := &Context{G: g, Start: s, End: e, Eval: ev}
	bare.SampleStarts = SampleStarts(g, 8, 7)
	shared.SampleStarts = bare.SampleStarts
	measures := []Measure{
		Size{}, RandomWalk{}, Count{}, Monocount{},
		LocalPosition{}, GlobalPosition{},
		LocalDeviation{}, GlobalDeviation{},
		Combined{Primary: Size{}, Secondary: LocalPosition{}},
		Combined{Primary: Size{}, Secondary: Monocount{}},
	}
	for _, m := range measures {
		for _, ex := range es {
			got := m.Score(shared, ex)
			want := m.Score(bare, ex)
			if got.Cmp(want) != 0 {
				t.Fatalf("%s on %v: evaluator score %v, bare score %v", m.Name(), ex.P, got, want)
			}
		}
	}
}

// TestEvaluatorMemoLookupAllocFree pins the sharded-evaluator contract
// that splitting the memos across lock shards added no steady-state
// allocations: once a (pattern, pair) count and a (pattern, start)
// table are memoised, re-reading them is pure shard selection plus a
// map lookup.
func TestEvaluatorMemoLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations; counts are not meaningful")
	}
	_, ev, es, s, e := evalFixture(t)
	ctx := context.Background()
	for _, ex := range es {
		if _, err := ev.Count(ctx, ex.P, s, e); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.CountByEnd(ctx, ex.P, s); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, ex := range es {
			if _, err := ev.Count(ctx, ex.P, s, e); err != nil {
				t.Fatal(err)
			}
			if _, err := ev.CountByEnd(ctx, ex.P, s); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("memoised evaluator lookups allocate %.0f times per sweep; want 0", allocs)
	}
}

// TestEvaluatorShardedParity drives every enumerated pattern through
// Count/CountByEnd/LocalPosition on a cold evaluator from many
// goroutines at once (run with -race) and checks each result against a
// serial reference evaluator: sharding partitions the locks, never the
// answers.
func TestEvaluatorShardedParity(t *testing.T) {
	g, ev, es, s, e := evalFixture(t)
	ref := NewEvaluator(g)
	ctx := context.Background()

	type res struct {
		count int
		ends  int
		pos   int
	}
	want := make([]res, len(es))
	for i, ex := range es {
		c, err := ref.Count(ctx, ex.P, s, e)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ref.CountByEnd(ctx, ex.P, s)
		if err != nil {
			t.Fatal(err)
		}
		pos, ok, err := ref.LocalPosition(ctx, ex.P, s, c, -1)
		if err != nil || !ok {
			t.Fatalf("reference LocalPosition: pos=%d ok=%v err=%v", pos, ok, err)
		}
		want[i] = res{count: c, ends: len(tab), pos: pos}
	}

	const goroutines = 8
	errs := make(chan error, goroutines)
	for gr := 0; gr < goroutines; gr++ {
		go func(gr int) {
			for round := 0; round < 3; round++ {
				for i, ex := range es {
					c, err := ev.Count(ctx, ex.P, s, e)
					if err != nil {
						errs <- err
						return
					}
					tab, err := ev.CountByEnd(ctx, ex.P, s)
					if err != nil {
						errs <- err
						return
					}
					pos, ok, err := ev.LocalPosition(ctx, ex.P, s, c, -1)
					if err != nil || !ok {
						errs <- fmt.Errorf("LocalPosition: ok=%v err=%v", ok, err)
						return
					}
					if c != want[i].count || len(tab) != want[i].ends || pos != want[i].pos {
						errs <- fmt.Errorf("pattern %d: concurrent (%d,%d,%d) != serial (%d,%d,%d)",
							i, c, len(tab), pos, want[i].count, want[i].ends, want[i].pos)
						return
					}
				}
			}
			errs <- nil
		}(gr)
	}
	for gr := 0; gr < goroutines; gr++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
