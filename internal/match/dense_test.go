package match

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/pattern"
)

// TestEndCounterSaturates guards the 32-bit counter width: a count at
// the top of the range stays there instead of wrapping to zero, and the
// end it belongs to is counted as exceeding a exactly once — one instance
// at a time and by weight, where the bar is raised by the end's debt.
func TestEndCounterSaturates(t *testing.T) {
	gb := kb.NewBuilder()
	id, w := gb.AddNode("n", "t"), gb.AddNode("w", "t")
	g := gb.Build()
	c := AcquireEndCounter(g, math.MaxUint32-2, -1)
	c.AddWeighted(id, 1, 0)
	c.n[id] = math.MaxUint32 - 2 // a instances so far: not above a yet
	for i := 0; i < 4; i++ {
		c.AddWeighted(id, 1, 0)
	}
	if c.n[id] != math.MaxUint32 {
		t.Errorf("counter = %d, want saturation at %d", c.n[id], uint32(math.MaxUint32))
	}
	if c.Exceeded() != 1 {
		t.Errorf("exceeded = %d, want 1", c.Exceeded())
	}
	c.Release()

	// a = 5 and a debt of 2: the end exceeds a when its sum reaches 8.
	c = AcquireEndCounter(g, 5, 1)
	defer c.Release()
	for i, m := range []uint32{3, 4, 1, math.MaxUint32, 7} {
		want := min(i/2, 1) // crossed by the third addition, once
		if more := c.AddWeighted(w, m, 2); c.Exceeded() != want || !more {
			t.Fatalf("addition %d (+%d): exceeded = %d (continue %v), want %d and no pruning at limit 1", i, m, c.Exceeded(), more, want)
		}
	}
	if c.n[w] != math.MaxUint32 {
		t.Errorf("weighted counter = %d, want saturation", c.n[w])
	}
	if c.AddWeighted(id, 9, 3) || !c.Pruned() {
		t.Error("a second end above a must prune under limit 1")
	}
}

// TestEndCounterSettle checks the step between weighted sums and counts:
// debts come off, an end whose sum was all debt leaves the table, and
// the position AddWeighted kept is already the settled one.
func TestEndCounterSettle(t *testing.T) {
	gb := kb.NewBuilder()
	x, y, z, v := gb.AddNode("x", "t"), gb.AddNode("y", "t"), gb.AddNode("z", "t"), gb.AddNode("v", "t")
	g := gb.Build()
	debt := make([]uint32, g.NumNodes())
	debt[x], debt[y], debt[z] = 2, 4, 2
	c := AcquireEndCounter(g, 2, -1)
	defer c.Release()
	c.AddWeighted(x, 5, debt[x]) // 3 instances: above a = 2
	c.AddWeighted(y, 4, debt[y]) // none yet
	c.AddWeighted(z, 2, debt[z]) // none, ever
	c.AddWeighted(v, 2, debt[v]) // 2 instances: not above
	c.AddWeighted(y, 3, debt[y]) // 3 instances after all
	if c.Exceeded() != 2 {
		t.Fatalf("exceeded = %d before settling, want 2 (x and y)", c.Exceeded())
	}
	c.Settle(debt)
	if got, want := c.Table(), (map[kb.NodeID]int{x: 3, y: 3, v: 2}); !reflect.DeepEqual(got, want) || c.n[z] != 0 {
		t.Errorf("settled table %v (z at %d), want %v", got, c.n[z], want)
	}
	if c.Exceeded() != 2 {
		t.Errorf("exceeded = %d after settling, want 2 still", c.Exceeded())
	}
}

// TestEndCounterFollowsGraphGrowth is the hot-swap hazard in miniature:
// a pooled counter released after use on a small graph must cover every
// node of a larger graph when it is next acquired, and come back zeroed.
func TestEndCounterFollowsGraphGrowth(t *testing.T) {
	b := kb.NewBuilder()
	first := b.AddNode("n0", "t")
	small := b.Build()
	c := AcquireEndCounter(small, 0, -1)
	c.AddWeighted(first, 1, 0)
	c.Release()
	b = kb.NewBuilderFrom(small)
	var last kb.NodeID
	for i := 0; i < 1000; i++ {
		last = b.AddNode(fmt.Sprintf("n%d", i+1), "t")
	}
	c = AcquireEndCounter(b.Build(), 0, 1)
	defer c.Release()
	if c.n[first] != 0 {
		t.Fatal("released counter kept a count")
	}
	if !c.AddWeighted(last, 1, 0) || c.Exceeded() != 1 {
		t.Fatalf("first end: exceeded %d, want 1 and not pruned", c.Exceeded())
	}
	if c.AddWeighted(first, 1, 0) || !c.Pruned() {
		t.Fatal("second end above a=0 must prune under limit 1")
	}
}

// TestCountByEndDenseMatchesMap checks the dense entry and the map entry
// on the pooled test pattern against the instances Find binds one by
// one, and that a limit stops the search.
func TestCountByEndDenseMatchesMap(t *testing.T) {
	g, p, s, _ := poolTestPattern(t)
	want := endTable(Find(g, p, s, kb.InvalidNode, Options{}))
	if got := CountByEnd(g, p, s); !reflect.DeepEqual(got, want) {
		t.Errorf("CountByEnd = %v, Find's instances add up to %v", got, want)
	}
	c := AcquireEndCounter(g, 0, -1)
	if err := CountByEndDense(context.Background(), g, p, s, c); err != nil {
		t.Fatal(err)
	}
	got := c.Table()
	c.Release()
	if len(got) != len(want) || len(want) < 2 {
		t.Fatalf("dense table has %d ends, Find's %d (need ≥ 2)", len(got), len(want))
	}
	for end, n := range want {
		if got[end] != n {
			t.Errorf("end %s: dense %d, Find %d", g.NodeName(end), got[end], n)
		}
	}
	c = AcquireEndCounter(g, 0, 1)
	defer c.Release()
	if err := CountByEndDense(context.Background(), g, p, s, c); err != nil {
		t.Fatal(err)
	}
	if !c.Pruned() || len(c.touched) != 2 {
		t.Errorf("limit 1 with %d ends above 0: pruned=%v after %d ends, want a stop at the second", len(want), c.Pruned(), len(c.touched))
	}
}

// mediumKB is the benchmark's knowledge base (kbgen medium seed 42),
// generated once per test binary.
var mediumKB = sync.OnceValue(func() *kb.Graph {
	opt, err := kbgen.PresetOptions("medium", 42)
	if err != nil {
		panic(err)
	}
	return kbgen.Generate(opt)
})

// mediumStart looks a start entity up in mediumKB.
func mediumStart(tb testing.TB, name string) kb.NodeID {
	tb.Helper()
	id := mediumKB().NodeByName(name)
	if id == kb.InvalidNode {
		tb.Fatalf("%s missing from the medium preset", name)
	}
	return id
}

// producerFixture is the tail of the benchmark's heaviest pairs: kbgen
// medium seed 42 from film_6338 with a free end, where a film reaches a
// ~500-film producer hub in one step. producer is the 855-instance
// pattern
//
//	start-[produced_by]->v2, end-[produced_by]->v2, end-[starring]->v4,
//	v3-[produced_by]->v2, v3-[produced_by]->v4
//
// and starring its 50 078-instance sibling with v3-[starring]->v4.
func producerFixture(tb testing.TB) (g *kb.Graph, start kb.NodeID, producer, starring *pattern.Pattern) {
	tb.Helper()
	g = mediumKB()
	prod, star := g.LabelByName(kbgen.RelProducedBy), g.LabelByName(kbgen.RelStarring)
	shape := func(last kb.LabelID) *pattern.Pattern {
		return pattern.MustNew(g, 5, []pattern.Edge{
			{U: pattern.Start, V: 2, Label: prod}, {U: pattern.End, V: 2, Label: prod},
			{U: pattern.End, V: 4, Label: star}, {U: 3, V: 2, Label: prod}, {U: 3, V: 4, Label: last},
		})
	}
	return g, mediumStart(tb, "film_6338"), shape(prod), shape(star)
}

// leafFixtures are the two shapes that owned the matcher's time on the
// benchmark's heavy pairs while the last variable was bound, not sized:
//
//	spouse  start→v2, end→v3, v2–spouse–v3, v4→v2, v4→v3   (film_5972)
//	        given v2 and v3, the shared film v4 and the end are
//	        independent: v4 is sized once and added to every end
//	fan     start→v2, v3→end, v3→v2, v4→end, v4→v2          (film_0395)
//	        v3 and v4 are interchangeable films of one studio: the last
//	        one's candidate set recurs for every choice of the other
func leafFixtures(tb testing.TB) (g *kb.Graph, fs []leafFixture) {
	tb.Helper()
	g = mediumKB()
	star, spouse, studio := g.LabelByName(kbgen.RelStarring), g.LabelByName(kbgen.RelSpouse), g.LabelByName(kbgen.RelStudioOf)
	const S, E = pattern.Start, pattern.End
	return g, []leafFixture{
		{"spouse", mediumStart(tb, "film_5972"), pattern.MustNew(g, 5, []pattern.Edge{
			{U: S, V: 2, Label: star}, {U: E, V: 3, Label: star}, {U: 2, V: 3, Label: spouse},
			{U: 4, V: 2, Label: star}, {U: 4, V: 3, Label: star},
		})},
		{"fan", mediumStart(tb, "film_0395"), pattern.MustNew(g, 5, []pattern.Edge{
			{U: S, V: 2, Label: star}, {U: 3, V: E, Label: studio}, {U: 3, V: 2, Label: star},
			{U: 4, V: E, Label: studio}, {U: 4, V: 2, Label: star},
		})},
	}
}

type leafFixture struct {
	name  string
	start kb.NodeID
	p     *pattern.Pattern
}

// TestMatcherPicksSmallestSpan pins the per-binding choice as a count of
// work: a static most-constrained-first plan binds two ~500-film
// producer spans before the 15-person cast that joins them and tries
// 932 305 and 1 538 219 bindings on these two patterns; choosing the
// smallest span at every binding tried 16 890 and 358 427. With the last
// variable sized, not bound, the second pattern is counted in fewer
// bindings than it has instances.
func TestMatcherPicksSmallestSpan(t *testing.T) {
	g, s, producer, starring := producerFixture(t)
	for _, c := range []struct {
		p                  *pattern.Pattern
		instances, ceiling int64
	}{{producer, 855, 10_000}, {starring, 50_078, 60_000}} {
		table, _, tried := tracedDense(t, g, c.p, s)
		var instances int64
		for _, n := range table {
			instances += int64(n)
		}
		t.Logf("%v: %d instances, %d bindings tried", c.p, instances, tried)
		if instances != c.instances {
			t.Errorf("%v: %d instances, want %d", c.p, instances, c.instances)
		}
		if tried == 0 || tried > c.ceiling {
			t.Errorf("%v: %d bindings tried, want 1..%d", c.p, tried, c.ceiling)
		}
	}
}

// BenchmarkCountByEndDense runs the matcher route of the local
// distribution on the producer pattern and on the two leaf fixtures: the
// whole distribution, and the position of a = 0 under LIMIT 0.
func BenchmarkCountByEndDense(b *testing.B) {
	g, s, producer, _ := producerFixture(b)
	_, fs := leafFixtures(b)
	ctx := context.Background()
	for _, f := range append([]leafFixture{{"producer", s, producer}}, fs...) {
		for _, limit := range []int{-1, 0} {
			b.Run(fmt.Sprintf("%s/limit=%d", f.name, limit), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c := AcquireEndCounter(g, 0, limit)
					if err := CountByEndDense(ctx, g, f.p, f.start, c); err != nil {
						b.Fatal(err)
					}
					c.Release()
				}
			})
		}
	}
}
