package enumerate

import (
	"context"
	"testing"

	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/oracle"
)

// TestPatternSizeLimits verifies that the size limit n is respected and
// meaningful: smaller limits yield subsets of larger limits' results.
func TestPatternSizeLimits(t *testing.T) {
	g := kbgen.Sample()
	start := g.NodeByName("brad_pitt")
	end := g.NodeByName("angelina_jolie")

	var prevKeys map[string]struct{}
	prevCount := 0
	for _, n := range []int{2, 3, 4, 5} {
		es, _, _ := ExplanationsBudgeted(context.Background(), g, start, end, Config{MaxPatternSize: n})
		keys := make(map[string]struct{}, len(es))
		for _, ex := range es {
			if ex.P.NumVars() > n {
				t.Errorf("n=%d: pattern with %d vars", n, ex.P.NumVars())
			}
			keys[ex.P.CanonicalKey()] = struct{}{}
		}
		if prevKeys != nil {
			for k := range prevKeys {
				if _, ok := keys[k]; !ok {
					t.Errorf("n=%d lost a pattern found at the smaller limit", n)
				}
			}
			if len(keys) < prevCount {
				t.Errorf("n=%d produced fewer patterns (%d) than smaller limit (%d)",
					n, len(keys), prevCount)
			}
		}
		prevKeys, prevCount = keys, len(keys)
	}
}

// TestSizeTwoOnlyDirectEdges: at n=2 the only explanations are the
// direct relationships between the pair.
func TestSizeTwoOnlyDirectEdges(t *testing.T) {
	g := kbgen.Sample()
	start := g.NodeByName("brad_pitt")
	end := g.NodeByName("angelina_jolie")
	es, _, _ := ExplanationsBudgeted(context.Background(), g, start, end, Config{MaxPatternSize: 2})
	if len(es) != 1 {
		t.Fatalf("expected exactly the spouse edge, got %d explanations", len(es))
	}
	if !es[0].P.IsPath() || es[0].P.NumEdges() != 1 {
		t.Errorf("unexpected n=2 explanation: %v", es[0].P)
	}
}

// TestDisconnectedPair: entities with no connection within the limit
// produce no explanations, served or from the oracle's strawmen.
func TestDisconnectedPair(t *testing.T) {
	gb := kb.NewBuilder()
	a := gb.AddNode("a", "t")
	b := gb.AddNode("b", "t")
	c := gb.AddNode("c", "t")
	l := gb.MustLabel("r", true)
	gb.MustAddEdge(a, c, l) // b is isolated
	g := gb.Build()
	if es, _, _ := ExplanationsBudgeted(context.Background(), g, a, b, Config{}); len(es) != 0 {
		t.Errorf("served: %d explanations for a disconnected pair", len(es))
	}
	if es := oracle.NaiveEnum(g, a, b, 5); len(es) != 0 {
		t.Errorf("NaiveEnum: %d explanations for a disconnected pair", len(es))
	}
	for _, pr := range oraclePathRoutes {
		if es := oracle.PathUnionBasic(pr.paths(g, a, b, 5), 5); len(es) != 0 {
			t.Errorf("%s+PathUnionBasic: %d explanations for a disconnected pair", pr.name, len(es))
		}
	}
}

// TestAdjacentOnlyPair: a pair connected by exactly one edge.
func TestAdjacentOnlyPair(t *testing.T) {
	gb := kb.NewBuilder()
	a := gb.AddNode("a", "t")
	b := gb.AddNode("b", "t")
	l := gb.MustLabel("r", true)
	gb.MustAddEdge(a, b, l)
	g := gb.Build()
	es, _, _ := ExplanationsBudgeted(context.Background(), g, a, b, Config{})
	if len(es) != 1 || es[0].P.NumVars() != 2 || len(es[0].Instances) != 1 {
		t.Fatalf("single-edge pair: %d explanations", len(es))
	}
	// Reverse direction: directed edge a→b does not explain (b, a)
	// as a start→end edge, but the path through it does exist (the
	// pattern has the edge oriented end→start).
	esRev, _, _ := ExplanationsBudgeted(context.Background(), g, b, a, Config{})
	if len(esRev) != 1 {
		t.Fatalf("reverse pair: %d explanations", len(esRev))
	}
	e := esRev[0].P.Edges()[0]
	if e.U != 1 || e.V != 0 {
		t.Errorf("reverse pattern edge: %+v (want end→start)", e)
	}
}

// TestSymmetricPairResults: explanations for (a,b) and (b,a) are
// mirrored — same number of patterns and instances.
func TestSymmetricPairResults(t *testing.T) {
	g := kbgen.Sample()
	a := g.NodeByName("kate_winslet")
	b := g.NodeByName("leonardo_dicaprio")
	fwd, _, _ := ExplanationsBudgeted(context.Background(), g, a, b, Config{})
	rev, _, _ := ExplanationsBudgeted(context.Background(), g, b, a, Config{})
	if len(fwd) != len(rev) {
		t.Fatalf("asymmetric explanation counts: %d vs %d", len(fwd), len(rev))
	}
	fi, ri := 0, 0
	for i := range fwd {
		fi += len(fwd[i].Instances)
		ri += len(rev[i].Instances)
	}
	if fi != ri {
		t.Fatalf("asymmetric instance totals: %d vs %d", fi, ri)
	}
}

// TestMinPRingStructure checks Theorem 2's consequence: every non-path
// minimal explanation decomposes into a smaller minimal explanation plus
// a covering path, which PathUnion realises ring by ring — so removing
// path explanations from the input removes all non-paths too.
func TestMinPRingStructure(t *testing.T) {
	g := kbgen.Sample()
	start := g.NodeByName("brad_pitt")
	end := g.NodeByName("angelina_jolie")
	paths, _, _ := PathsBudgeted(context.Background(), g, start, end, Config{})
	all := PathUnionPrune(paths, 5)
	if len(all) <= len(paths) {
		t.Skip("pair has no non-path explanations at this size limit")
	}
	// Union with no paths is empty; union with paths contains them all.
	if got := PathUnionPrune(nil, 5); len(got) != 0 {
		t.Errorf("union of no paths produced %d explanations", len(got))
	}
	keyset := map[string]bool{}
	for _, ex := range all {
		keyset[ex.P.CanonicalKey()] = true
	}
	for _, p := range paths {
		if !keyset[p.P.CanonicalKey()] {
			t.Error("a path explanation is missing from the union output")
		}
	}
}
