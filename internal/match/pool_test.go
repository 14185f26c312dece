package match

import (
	"context"
	"testing"

	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/pattern"
)

func poolTestPattern(t *testing.T) (*kb.Graph, *pattern.Pattern, kb.NodeID, kb.NodeID) {
	t.Helper()
	g := kbgen.Sample()
	g.Freeze()
	star := g.LabelByName(kbgen.RelStarring)
	dir := g.LabelByName(kbgen.RelDirectedBy)
	p := pattern.MustNew(g, 4, []pattern.Edge{
		{U: 2, V: pattern.Start, Label: star},
		{U: 2, V: pattern.End, Label: star},
		{U: 2, V: 3, Label: dir},
	})
	return g, p, g.NodeByName("brad_pitt"), g.NodeByName("angelina_jolie")
}

// TestCountSteadyStateAllocFree is the alloc-regression guard for the
// pooled matcher: once the pool is warm, Count must not allocate — the
// matcher, its anchors and its counting callback are all reused. The same
// holds for CountByEndInto with a caller-reused table: the per-end
// counting callback and the accumulation map are both recycled.
func TestCountSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop entries; alloc counts are not meaningful")
	}
	g, p, s, e := poolTestPattern(t)
	Count(g, p, s, e) // warm the pool (and the pattern's lazy caches)
	allocs := testing.AllocsPerRun(200, func() {
		Count(g, p, s, e)
	})
	if allocs != 0 {
		t.Errorf("steady-state Count allocates %.1f times per op; want 0", allocs)
	}

	counts := make(map[kb.NodeID]int)
	if err := CountByEndInto(context.Background(), g, p, s, counts); err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		t.Fatal("CountByEndInto found no ends for the test pattern")
	}
	want := len(counts)
	allocs = testing.AllocsPerRun(200, func() {
		clear(counts)
		if err := CountByEndInto(context.Background(), g, p, s, counts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state CountByEndInto allocates %.1f times per op; want 0", allocs)
	}
	if len(counts) != want {
		t.Errorf("reused-table CountByEndInto found %d ends, want %d", len(counts), want)
	}
}

// TestPoolReuseIsCorrect hammers one pooled matcher sequence across
// different patterns and target bindings, checking that reused state
// never leaks between runs.
func TestPoolReuseIsCorrect(t *testing.T) {
	g, p, s, e := poolTestPattern(t)
	star := g.LabelByName(kbgen.RelStarring)
	direct := pattern.MustNew(g, 2, []pattern.Edge{
		{U: pattern.Start, V: pattern.End, Label: g.LabelByName(kbgen.RelSpouse)},
	})
	path3 := pattern.MustNew(g, 3, []pattern.Edge{
		{U: 2, V: pattern.Start, Label: star},
		{U: 2, V: pattern.End, Label: star},
	})
	want := [3]int{Count(g, p, s, e), Count(g, direct, s, e), Count(g, path3, s, e)}
	for i := 0; i < 50; i++ {
		if got := Count(g, p, s, e); got != want[0] {
			t.Fatalf("iteration %d: Count(p) = %d, want %d", i, got, want[0])
		}
		if got := Count(g, direct, s, e); got != want[1] {
			t.Fatalf("iteration %d: Count(direct) = %d, want %d", i, got, want[1])
		}
		if got := Count(g, path3, s, e); got != want[2] {
			t.Fatalf("iteration %d: Count(path3) = %d, want %d", i, got, want[2])
		}
		// Free-end runs interleave with fixed-end runs so both search
		// shapes cycle through the same pooled matchers.
		if got := CountByEnd(g, path3, s); len(got) == 0 {
			t.Fatalf("iteration %d: CountByEnd found no end", i)
		}
	}
}

// TestPooledMatcherParallel runs concurrent counts to let the race
// detector prove pooled matchers are never shared between goroutines.
func TestPooledMatcherParallel(t *testing.T) {
	g, p, s, e := poolTestPattern(t)
	want := Count(g, p, s, e)
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		go func() {
			ok := true
			for i := 0; i < 100; i++ {
				if Count(g, p, s, e) != want {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent pooled Count returned a wrong result")
		}
	}
}
