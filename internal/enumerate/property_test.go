package enumerate

import (
	"bytes"
	"context"
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

// neverExpires runs the join the way a budgeted caller does — under a
// WithDeadline context — without ever truncating it.
func neverExpires(t testing.TB, ctx context.Context) context.Context {
	bctx, cancel := WithDeadline(ctx, time.Now().Add(time.Hour))
	t.Cleanup(cancel)
	return bctx
}

// twins returns g made the two other ways a served graph is: an overlay
// generation whose delta adds the last quarter of g's edges to a base
// built with the rest, and g round-tripped through the snapshot codec.
func twins(g *kb.Graph) ([]*kb.Graph, error) {
	edges := g.Edges()
	cut := len(edges) - len(edges)/4
	b := kb.NewBuilder()
	for _, n := range g.Nodes() {
		b.AddNode(n.Name, n.Type)
	}
	for _, l := range g.Labels() {
		b.MustLabel(g.LabelName(l), g.LabelDirected(l))
	}
	for _, e := range edges[:cut] {
		b.MustAddEdge(e.From, e.To, e.Label)
	}
	ob, err := kb.NewOverlayBuilder(b.Build())
	if err != nil {
		return nil, err
	}
	for _, e := range edges[cut:] {
		if _, err := ob.AddEdge(e.From, e.To, e.Label); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		return nil, err
	}
	snap, err := kb.ReadBinary(&buf)
	if err != nil {
		return nil, err
	}
	return []*kb.Graph{ob.Graph(), snap}, nil
}

// TestQuickFrameworkEqualsNaiveOnRandomGraphs is the randomized
// counterpart of TestFrameworkMatchesNaiveEnum: on arbitrary small
// graphs, the served pipeline and the brute-force oracle.NaiveEnum must
// produce identical explanation sets (patterns and canonicalised
// instance sets), with pattern size limit 4 to keep NaiveEnum tractable
// inside a property test. The pipeline answers on the graph and on its
// twins (an overlay generation and a snapshot load of the same content),
// plain and under a deadline budget that never binds.
func TestQuickFrameworkEqualsNaiveOnRandomGraphs(t *testing.T) {
	type entry struct{ insts []pattern.InstanceKey }
	sig := func(es []*pattern.Explanation) map[string]entry {
		m := make(map[string]entry, len(es))
		for _, ex := range es {
			m[ex.P.CanonicalKey()] = entry{insts: ex.CanonicalInstanceKeys()}
		}
		return m
	}
	same := func(want, got []*pattern.Explanation) bool {
		if len(want) != len(got) {
			return false
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
	f := func(seed int64) bool {
		g, start, end := randomKB(seed)
		const maxVars = 4
		want := oracle.NaiveEnum(g, start, end, maxVars)
		tw, err := twins(g)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, h := range append([]*kb.Graph{g}, tw...) {
			if h.Fingerprint() != g.Fingerprint() {
				return false
			}
			bg := context.Background()
			for _, ctx := range []context.Context{bg, neverExpires(t, bg)} {
				got, _, _ := ExplanationsBudgeted(ctx, h, start, end, Config{MaxPatternSize: maxVars})
				if !same(want, got) {
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
// naive and basic enumerators and the served join — plain and under a
// deadline — produce identical path sets
// on random graphs.
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
		paths := func(ctx context.Context, cfg Config) []*pattern.Explanation {
			es, _, _ := PathsBudgeted(ctx, g, start, end, cfg)
			return es
		}
		maxLen := DefaultMaxPatternSize - 1
		a := sig(oracle.Group(g, oracle.PathEnumNaive(g, start, end, maxLen)))
		bg := context.Background()
		others := []map[string]int{
			sig(oracle.Group(g, oracle.PathEnumBasic(g, start, end, maxLen))),
			sig(paths(bg, Config{})),
			sig(paths(neverExpires(t, bg), Config{})),
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

// TestPathsContextCancelled checks cancellation propagates out of the
// served join, plain and under a deadline budget. The graph is large enough for the join to reach its first
// context poll, so each must report context.Canceled and no paths.
func TestPathsContextCancelled(t *testing.T) {
	g := completeKB(24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx context.Context
		cfg Config
	}{
		"plain":            {ctx, Config{MaxPatternSize: 7}},
		"under a deadline": {neverExpires(t, ctx), Config{MaxPatternSize: 7}},
	} {
		es, _, err := PathsBudgeted(tc.ctx, g, 0, 1, tc.cfg)
		if err != context.Canceled || es != nil {
			t.Errorf("%s: %d path explanations, err = %v; want none and context.Canceled", name, len(es), err)
		}
	}
}
