package enumerate

import (
	"context"
	"runtime"
	"testing"

	"rex/internal/kbgen"
)

// enumerateAllocBudget bounds the steady-state allocations of one full
// sample-KB enumeration (path join + pruned union). The pooled state
// makes the join's records, grouping and merge candidates free; what
// remains is the returned explanation set itself (patterns, instance
// blocks, result slices) plus amortised map growth. The pooling's
// acceptance line was ≤ 880 allocs/op (10× under the 8,834 the unpooled
// implementation performed); the budget sits under it with headroom so a
// regression trips here before it shows in any benchmark.
const enumerateAllocBudget = 600

// TestEnumerateSteadyStateAllocBudget is the alloc-regression guard for
// the pooled enumeration pipeline, enforced like the match pool test,
// plain and under a deadline budget that never binds.
func TestEnumerateSteadyStateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop entries; alloc counts are not meaningful")
	}
	g := kbgen.Sample()
	s := g.NodeByName("brad_pitt")
	e := g.NodeByName("angelina_jolie")
	bg := context.Background()
	for route, ctx := range map[string]context.Context{"plain": bg, "budgeted": neverExpires(t, bg)} {
		cfg := Config{MaxPatternSize: 5}

		es, _, _ := ExplanationsBudgeted(ctx, g, s, e, cfg) // warm pools, pin expected size
		want := len(es)
		if want == 0 {
			t.Fatalf("%s: sample enumeration returned nothing", route)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if es, _, _ := ExplanationsBudgeted(ctx, g, s, e, cfg); len(es) != want {
				t.Fatalf("%s: enumeration size changed under pooling: %d != %d", route, len(es), want)
			}
		})
		if allocs > enumerateAllocBudget {
			t.Errorf("%s: steady-state ExplanationsBudgeted allocates %.0f times per op; budget %d", route, allocs, enumerateAllocBudget)
		}
	}
}

// TestPathUnionPruneAllocBound holds the steady-state union stage on the
// benchmark's heaviest medium pair (film_5972→film_4871, the
// BenchmarkPathUnionPrune workload) to at most 73 776 B and 333
// allocations an op, what a per-join hash index cost: the per-run
// binding index must live in the merger's pooled storage, so that a
// warm state pays only for the explanations the union returns.
func TestPathUnionPruneAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop entries; alloc counts are not meaningful")
	}
	const maxBytes, maxAllocs = 73776, 333
	g := benchGraph()
	cfg := Config{}.normalized()
	paths, _, _ := PathsBudgeted(context.Background(), g, g.NodeByName("film_5972"), g.NodeByName("film_4871"), cfg)
	st := newEnumState()
	ctx := context.Background()
	union := func() {
		if _, _, err := st.pathUnionPrune(ctx, paths, cfg.MaxPatternSize); err != nil {
			t.Fatal(err)
		}
	}
	union()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, union)
	runtime.ReadMemStats(&after)
	// AllocsPerRun runs the function once more to warm up.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("pathUnionPrune: %.0f B and %.0f allocs an op", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("pathUnionPrune allocates %.0f B and %.0f times an op; bound %d B, %d allocs", bytes, allocs, maxBytes, maxAllocs)
	}
}
