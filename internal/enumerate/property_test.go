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
	"rex/internal/pattern"
)

// randomKB builds a small random knowledge base with mixed directed and
// undirected labels.
func randomKB(seed int64) (*kb.Graph, kb.NodeID, kb.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := kb.New()
	n := 6 + rng.Intn(7)
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a'+i%26))+string(rune('0'+i/26)), "t")
	}
	labels := []kb.LabelID{
		g.MustLabel("d1", true),
		g.MustLabel("d2", true),
		g.MustLabel("u1", false),
	}
	edges := 2*n + rng.Intn(2*n)
	for i := 0; i < edges; i++ {
		a, b := kb.NodeID(rng.Intn(n)), kb.NodeID(rng.Intn(n))
		if a != b {
			g.AddEdge(a, b, labels[rng.Intn(len(labels))])
		}
	}
	g.Freeze()
	return g, 0, 1
}

// Plain PathPrioritized requests take the exhaustive join; these two
// budgets reach the activation-ordered frontier the way a caller does,
// without ever truncating it.
func neverExpires() Budget { return Budget{Deadline: time.Now().Add(time.Hour)} }

var neverTruncates = Budget{MaxExpansions: math.MaxInt}

// TestQuickFrameworkEqualsNaiveOnRandomGraphs is the randomized
// counterpart of TestFrameworkMatchesNaiveEnum: on arbitrary small
// graphs, the path-union framework and the brute-force baseline must
// produce identical explanation sets (patterns and canonicalised
// instance sets), with pattern size limit 4 to keep NaiveEnum tractable
// inside a property test.
func TestQuickFrameworkEqualsNaiveOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g, start, end := randomKB(seed)
		const maxVars = 4
		want := NaiveEnum(g, start, end, maxVars)
		got := Explanations(g, start, end, Config{
			MaxPatternSize: maxVars,
			PathAlg:        PathPrioritized,
			UnionAlg:       UnionPrune,
		})
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

// TestQuickEnumerationInvariants property-checks the framework's output
// invariants on random graphs at the full size limit: minimality,
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
		es := Explanations(g, start, end, Config{
			PathAlg: PathBasic, UnionAlg: UnionBasic,
		})
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

// TestQuickPathAlgorithmsAgreeOnRandomGraphs checks that naive, basic,
// the exhaustive join and the frontier — reached by a deadline and by an
// expansion budget — produce identical path sets on random graphs.
func TestQuickPathAlgorithmsAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		g, start, end := randomKB(seed)
		sig := func(cfg Config) map[string]int {
			m := map[string]int{}
			for _, ex := range Paths(g, start, end, cfg) {
				m[ex.P.CanonicalKey()] = len(ex.Instances)
			}
			return m
		}
		a := sig(Config{PathAlg: PathNaive})
		others := []Config{
			{PathAlg: PathBasic},
			{PathAlg: PathPrioritized},
			{PathAlg: PathPrioritized, Budget: neverExpires()},
			{PathAlg: PathPrioritized, Budget: neverTruncates},
		}
		for _, cfg := range others {
			b := sig(cfg)
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

// TestPathsContextCancelled checks cancellation propagates out of every
// enumeration algorithm.
func TestPathsContextCancelled(t *testing.T) {
	g, start, end := randomKB(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []PathAlgorithm{PathNaive, PathBasic, PathPrioritized} {
		// The interval check may let tiny graphs finish before the first
		// poll; the explicit batch-0 check in each algorithm makes a
		// pre-cancelled context deterministic for prioritized, and the
		// others tolerate either outcome on graphs this small only if
		// enumeration is trivial — so only assert "no wrong error".
		es, _, err := PathsBudgeted(ctx, g, start, end, Config{PathAlg: alg})
		if err == nil {
			continue // finished under the check interval: acceptable
		}
		if err != context.Canceled {
			t.Errorf("%v: err = %v, want context.Canceled", alg, err)
		}
		if es != nil {
			t.Errorf("%v: partial results returned alongside error", alg)
		}
	}
}
