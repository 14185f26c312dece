package enumerate

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rex/internal/kb"
	"rex/internal/match"
	"rex/internal/oracle"
	"rex/internal/pattern"
)

// randomKB builds a small random knowledge base with mixed directed and
// undirected labels.
func randomKB(seed int64) (*kb.Graph, kb.NodeID, kb.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	gb := kb.NewBuilder()
	n := 6 + rng.Intn(7)
	for i := 0; i < n; i++ {
		gb.AddNode(string(rune('a'+i%26))+string(rune('0'+i/26)), "t")
	}
	labels := []kb.LabelID{
		gb.MustLabel("d1", true),
		gb.MustLabel("d2", true),
		gb.MustLabel("u1", false),
	}
	edges := 2*n + rng.Intn(2*n)
	for i := 0; i < edges; i++ {
		a, b := kb.NodeID(rng.Intn(n)), kb.NodeID(rng.Intn(n))
		if a != b {
			gb.AddEdge(a, b, labels[rng.Intn(len(labels))])
		}
	}
	g := gb.Build()
	return g, 0, 1
}

// Plain requests take the exhaustive join; these two budgets reach the
// activation-ordered frontier the way a caller does, without ever
// truncating it.
func neverExpires() Budget { return Budget{Deadline: time.Now().Add(time.Hour)} }

var neverTruncates = Budget{MaxExpansions: math.MaxInt}

// TestQuickFrameworkEqualsNaiveOnRandomGraphs is the randomized
// counterpart of TestFrameworkMatchesNaiveEnum: on arbitrary small
// graphs, the served pipeline and the brute-force oracle.NaiveEnum must
// produce identical explanation sets (patterns and canonicalised
// instance sets), with pattern size limit 4 to keep NaiveEnum tractable
// inside a property test.
func TestQuickFrameworkEqualsNaiveOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g, start, end := randomKB(seed)
		const maxVars = 4
		want := oracle.NaiveEnum(g, start, end, maxVars)
		got, _, _ := ExplanationsBudgeted(context.Background(), g, start, end, Config{MaxPatternSize: maxVars})
		if len(want) != len(got) {
			return false
		}
		type entry struct{ insts []pattern.InstanceKey }
		sig := func(es []*pattern.Explanation) map[string]entry {
			m := make(map[string]entry, len(es))
			for _, ex := range es {
				m[ex.P.CanonicalKey()] = entry{insts: ex.CanonicalInstanceKeys()}
			}
			return m
		}
		ws, gs := sig(want), sig(got)
		for k, we := range ws {
			ge, ok := gs[k]
			if !ok || len(we.insts) != len(ge.insts) {
				return false
			}
			for i := range we.insts {
				if we.insts[i] != ge.insts[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEnumerationInvariants property-checks the served pipeline's
// output invariants on random graphs at the full size limit: minimality,
// instance validity, and agreement of every instance set with the
// independent matcher. This is by far the slowest test of the package
// (tens of seconds at full count), so -short trims the iteration count.
func TestQuickEnumerationInvariants(t *testing.T) {
	maxCount := 30
	if testing.Short() {
		maxCount = 3
	}
	f := func(seed int64) bool {
		g, start, end := randomKB(seed)
		es, _, _ := ExplanationsBudgeted(context.Background(), g, start, end, Config{})
		for _, ex := range es {
			if !ex.P.Minimal() || len(ex.Instances) == 0 {
				return false
			}
			if ex.Validate(g, start, end) != nil {
				return false
			}
			if match.Count(g, ex.P, start, end) != len(ex.Instances) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPathAlgorithmsAgreeOnRandomGraphs checks that the oracle's
// naive and basic enumerators and both served routes — the exhaustive
// join and the frontier, reached by a deadline and by an expansion
// budget — produce identical path sets on random graphs.
func TestQuickPathAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g, start, end := randomKB(seed)
		sig := func(es []*pattern.Explanation) map[string]int {
			m := map[string]int{}
			for _, ex := range es {
				m[ex.P.CanonicalKey()] = len(ex.Instances)
			}
			return m
		}
		paths := func(cfg Config) []*pattern.Explanation {
			es, _, _ := PathsBudgeted(context.Background(), g, start, end, cfg)
			return es
		}
		maxLen := DefaultMaxPatternSize - 1
		a := sig(oracle.Group(g, oracle.PathEnumNaive(g, start, end, maxLen)))
		others := []map[string]int{
			sig(oracle.Group(g, oracle.PathEnumBasic(g, start, end, maxLen))),
			sig(paths(Config{})),
			sig(paths(Config{Budget: neverExpires()})),
			sig(paths(Config{Budget: neverTruncates})),
		}
		for _, b := range others {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if b[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPathsContextCancelled checks cancellation propagates out of both
// served routes: the exhaustive join, and the frontier reached by a
// deadline and by an expansion budget. The graph is large enough for
// every route to reach its first context poll, so each must report
// context.Canceled and no paths.
func TestPathsContextCancelled(t *testing.T) {
	g := completeKB(24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, cfg := range map[string]Config{
		"exhaustive":             {MaxPatternSize: 7},
		"frontier by deadline":   {MaxPatternSize: 7, Budget: neverExpires()},
		"frontier by expansions": {MaxPatternSize: 7, Budget: neverTruncates},
	} {
		es, _, err := PathsBudgeted(ctx, g, 0, 1, cfg)
		if err != context.Canceled || es != nil {
			t.Errorf("%s: %d path explanations, err = %v; want none and context.Canceled", name, len(es), err)
		}
	}
}
