package measure

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/match"
	"rex/internal/pattern"
)

// kernelCase is one (graph, start, patterns) cell of the differential
// test; as[i] are the aggregate values to position for ps[i].
type kernelCase struct {
	name  string
	g     *kb.Graph
	start kb.NodeID
	ps    []*pattern.Pattern
	as    [][]int
}

// enumeratedCases turns sampled pairs of g into kernel cases: every
// enumerated pattern of the pair, positioned at 0, its own count and one
// above.
func enumeratedCases(t *testing.T, name string, g *kb.Graph, pairs int) []kernelCase {
	t.Helper()
	var out []kernelCase
	if testing.Short() {
		pairs = 1
	}
	sampled := kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: pairs, Seed: 5})
	for _, pr := range sampled {
		es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, pr.Start, pr.End, enumerate.Config{})
		if testing.Short() && len(es) > 60 {
			es = es[:60]
		}
		c := kernelCase{name: fmt.Sprintf("%s/%s-%s", name, g.NodeName(pr.Start), g.NodeName(pr.End)), g: g, start: pr.Start}
		for _, ex := range es {
			c.ps = append(c.ps, ex.P)
			c.as = append(c.as, []int{0, ex.Count(), ex.Count() + 1})
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no pairs sampled", name)
	}
	return out
}

// overlayOf stacks two overlay generations on a graph: new
// entities hung off existing ones, then edges deleted next to them.
func overlayOf(t *testing.T, g *kb.Graph) *kb.Graph {
	t.Helper()
	edges := g.Edges()
	for depth := 0; depth < 2; depth++ {
		b, err := kb.NewOverlayBuilder(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			e := edges[(i*97+depth*31)%len(edges)]
			if depth == 0 {
				n := b.AddNode(fmt.Sprintf("ov_%d", i), g.Node(e.From).Type)
				if _, err := b.AddEdge(n, e.To, e.Label); err != nil {
					t.Fatal(err)
				}
			} else if _, err := b.RemoveEdge(e.From, e.To, e.Label); err != nil {
				t.Fatal(err)
			}
		}
		g = b.Graph()
	}
	if g.Overlay().Depth < 2 {
		t.Fatalf("overlay depth %d, want ≥ 2", g.Overlay().Depth)
	}
	return g
}

// hubCase is a hand-built graph whose two-step walk level from s holds
// 360 000 walks — more node IDs than the retired walk cache would
// materialise — with a triangle pattern whose end has a 600-wide and a
// 5-wide edge into the bound set. Under -short (the race run) the fan
// shrinks: the shape stays, the 10⁷ instrumented walk steps go.
func hubCase() kernelCase {
	fan := 600
	if testing.Short() {
		fan = 100
	}
	gb := kb.NewBuilder()
	r, q := gb.MustLabel("r", false), gb.MustLabel("q", false)
	s := gb.AddNode("s", "hub")
	var mids, leaves []kb.NodeID
	for i := 0; i < fan; i++ {
		mids = append(mids, gb.AddNode(fmt.Sprintf("m%d", i), "mid"))
		leaves = append(leaves, gb.AddNode(fmt.Sprintf("l%d", i), "leaf"))
	}
	for _, m := range mids {
		gb.MustAddEdge(s, m, r)
		for _, l := range leaves {
			gb.MustAddEdge(m, l, r)
		}
	}
	for _, l := range leaves[:5] {
		gb.MustAddEdge(s, l, q)
	}
	g := gb.Build()
	path2 := pattern.MustNew(g, 3, []pattern.Edge{{U: pattern.Start, V: 2, Label: r}, {U: 2, V: pattern.End, Label: r}})
	triangle := pattern.MustNew(g, 3, []pattern.Edge{
		{U: pattern.Start, V: 2, Label: r}, {U: 2, V: pattern.End, Label: r}, {U: pattern.Start, V: pattern.End, Label: q},
	})
	direct := pattern.MustNew(g, 2, []pattern.Edge{{U: pattern.Start, V: pattern.End, Label: q}})
	return kernelCase{name: "hub", g: g, start: s,
		ps: []*pattern.Pattern{path2, triangle, direct},
		as: [][]int{{0, fan, fan + 1}, {0, fan, fan + 1}, {0, 1, 2}}}
}

// debtGraph is hand-built around the identity the path route rests on,
// count[e] = Σ_v mult[v]·[e ∈ N(v)] − debt[e]: every way a prefix node
// can (and cannot) be a last-step neighbour of the prefix's end.
//
//	s →d m0..m3      m0,m1 →d s (2-cycles)    m_i →d x_j, hub
//	hub →d s, m1, l0..l1999                    x0 →d m2 (2-cycle), l0..l4
//	s —u— m0, m1     m0 —u— m1, m2, x0
//
// A self-loop would make a prefix end its own last-step neighbour; the
// knowledge base rejects one, which is why the kernel never discounts v.
func debtGraph(t *testing.T) (g *kb.Graph, s kb.NodeID) {
	t.Helper()
	gb := kb.NewBuilder()
	d, u := gb.MustLabel("d", true), gb.MustLabel("u", false)
	s = gb.AddNode("s", "t")
	hub := gb.AddNode("hub", "t")
	var ms, xs []kb.NodeID
	for i := 0; i < 4; i++ {
		ms = append(ms, gb.AddNode(fmt.Sprintf("m%d", i), "t"))
		xs = append(xs, gb.AddNode(fmt.Sprintf("x%d", i), "t"))
	}
	for i, m := range ms {
		gb.MustAddEdge(s, m, d)
		gb.MustAddEdge(m, hub, d)
		for _, x := range xs[:i+1] {
			gb.MustAddEdge(m, x, d)
		}
	}
	gb.MustAddEdge(ms[0], s, d)
	gb.MustAddEdge(ms[1], s, d)
	gb.MustAddEdge(xs[0], ms[2], d)
	gb.MustAddEdge(hub, s, d)
	gb.MustAddEdge(hub, ms[1], d)
	for j := 0; j < 2000; j++ {
		l := gb.AddNode(fmt.Sprintf("l%d", j), "t")
		gb.MustAddEdge(hub, l, d)
		if j < 5 {
			gb.MustAddEdge(xs[0], l, d)
		}
	}
	for _, e := range [][2]kb.NodeID{{s, ms[0]}, {s, ms[1]}, {ms[0], ms[1]}, {ms[0], ms[2]}, {ms[0], xs[0]}} {
		gb.MustAddEdge(e[0], e[1], u)
	}
	if _, err := gb.AddEdge(hub, hub, d); err == nil {
		t.Fatal("the knowledge base accepted a self-loop: the path kernel assumes v ∉ N(v)")
	}
	return gb.Build(), s
}

// debtCase positions debtGraph's path patterns on g: one step; a last
// step that reverses the one before it, directed and undirected (every
// prefix owes the start); a last step in the same direction (the start
// is adjacent to every prefix end the wrong way round and owes nothing,
// except across a 2-cycle); three steps into the 2 000-wide hub span,
// which three prefixes share; and mixed labels.
func debtCase(name string, g *kb.Graph, s kb.NodeID) kernelCase {
	d, u := g.LabelByName("d"), g.LabelByName("u")
	const S, E = pattern.Start, pattern.End
	c := kernelCase{name: name, g: g, start: s}
	for _, edges := range [][]pattern.Edge{
		{{U: S, V: E, Label: d}},
		{{U: E, V: S, Label: d}},
		{{U: S, V: E, Label: u}},
		{{U: S, V: 2, Label: d}, {U: E, V: 2, Label: d}},
		{{U: S, V: 2, Label: u}, {U: 2, V: E, Label: u}},
		{{U: S, V: 2, Label: d}, {U: 2, V: E, Label: d}},
		{{U: 2, V: S, Label: d}, {U: 2, V: E, Label: d}},
		{{U: S, V: 2, Label: d}, {U: 2, V: 3, Label: d}, {U: 3, V: E, Label: d}},
		{{U: S, V: 2, Label: d}, {U: 2, V: 3, Label: d}, {U: E, V: 3, Label: d}},
		{{U: S, V: 2, Label: u}, {U: 2, V: 3, Label: d}, {U: 3, V: E, Label: d}},
		{{U: S, V: 2, Label: d}, {U: 2, V: 3, Label: u}, {U: 3, V: E, Label: u}},
		{{U: S, V: 2, Label: d}, {U: 2, V: 3, Label: d}, {U: 3, V: 4, Label: d}, {U: 4, V: E, Label: d}},
	} {
		c.ps = append(c.ps, pattern.MustNew(g, len(edges)+1, edges))
		c.as = append(c.as, []int{0, 1, 2, 3, 4})
	}
	return c
}

// enumeratedTable is the reference local distribution: every instance
// bound by match.ForEach, which shares none of the counting entry points'
// shortcuts, grouped by end.
func enumeratedTable(g *kb.Graph, p *pattern.Pattern, start kb.NodeID) map[kb.NodeID]int {
	table := make(map[kb.NodeID]int)
	match.ForEach(g, p, start, kb.InvalidNode, func(in pattern.Instance) bool {
		table[in[pattern.End]]++
		return true
	})
	return table
}

// oraclePosition is the naive reading of Section 4.3: the whole local
// distribution as a map, then the ends strictly above a.
func oraclePosition(table map[kb.NodeID]int, a int) int {
	pos := 0
	for _, c := range table {
		if c > a {
			pos++
		}
	}
	return pos
}

// TestLocalDistributionDifferential checks the one counting kernel —
// path and non-path patterns, built and overlay graphs — against the
// naive
// oracle: position and pruning decision for every limit, and whole
// tables for the deviation measures.
func TestLocalDistributionDifferential(t *testing.T) {
	small := kbgen.Generate(kbgen.Options{Scale: 1, Seed: 11})
	cases := enumeratedCases(t, "small", small, 3)
	cases = append(cases, enumeratedCases(t, "overlay", overlayOf(t, small), 3)...)
	cases = append(cases, hubCase())
	debts, s := debtGraph(t)
	cases = append(cases, debtCase("debts", debts, s), debtCase("debts, overlay", overlayOf(t, debts), s))

	ctx := context.Background()
	limits := []int{-1, 0, 1, 2, 10, math.MaxInt}
	paths, others := 0, 0
	for _, c := range cases {
		for i, p := range c.ps {
			if p.IsPath() {
				paths++
			} else {
				others++
			}
			oracle := enumeratedTable(c.g, p, c.start)
			for _, a := range c.as[i] {
				want := oraclePosition(oracle, a)
				for _, limit := range limits {
					pos, ok := streamLocalPosition(ctx, c.g, p, c.start, a, limit)
					if wantOK := limit < 0 || want <= limit; ok != wantOK || (ok && pos != want) {
						t.Fatalf("%s %v a=%d limit=%d: (%d,%v), oracle position %d", c.name, p, a, limit, pos, ok, want)
					}
				}
			}
			table, err := localTable(ctx, c.g, p, c.start)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(table, oracle) {
				t.Fatalf("%s %v: kernel table %s, oracle %s", c.name, p, tableDiff(c.g, table, oracle), tableDiff(c.g, oracle, table))
			}
		}
	}
	t.Logf("%d cases, %d path and %d non-path patterns", len(cases), paths, others)
	if paths == 0 || others == 0 {
		t.Fatalf("cases must cover both routes: %d path, %d non-path patterns", paths, others)
	}
}

// tableDiff renders the size of a table and its first entry that the
// other table does not hold.
func tableDiff(g *kb.Graph, t, other map[kb.NodeID]int) string {
	for id, n := range t {
		if other[id] != n {
			return fmt.Sprintf("has %d ends, %s=%d", len(t), g.NodeName(id), n)
		}
	}
	return fmt.Sprintf("has %d ends", len(t))
}

// TestGlobalPositionResidualLimits checks that the per-sample residual
// limit GlobalPosition hands the kernel prunes exactly when the summed
// position exceeds the limit, and otherwise returns the unlimited sum.
func TestGlobalPositionResidualLimits(t *testing.T) {
	mctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	g := mctx.G
	mctx.SampleStarts = SampleStarts(g, 8, 7)
	global := GlobalPosition{}
	for _, ex := range es {
		sum := 0
		for _, st := range mctx.SampleStarts {
			sum += oraclePosition(enumeratedTable(g, ex.P, st), ex.Count())
		}
		for _, limit := range []int{0, 1, sum - 1, sum, sum + 1, math.MaxInt32} {
			if limit < 0 {
				continue
			}
			got, ok := global.ScoreWithLimit(mctx, ex, Score{-float64(limit)})
			if ok != (sum <= limit) || (ok && got[0] != -float64(sum)) {
				t.Fatalf("%v limit %d: (%v,%v), unlimited sum %d", ex.P, limit, got, ok, sum)
			}
		}
	}
}

// TestLocalPositionSteadyStateAllocFree pins the kernel's allocation
// contract: on a warm pool, positioning a path pattern and a non-path
// pattern allocates nothing — no walk set, no table, no closure.
func TestLocalPositionSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop entries; alloc counts are not meaningful")
	}
	mctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	g, s := mctx.G, mctx.Start
	ctx := context.Background()
	var path, other *pattern.Explanation
	for _, ex := range es {
		if ex.P.IsPath() && path == nil {
			path = ex
		} else if !ex.P.IsPath() && other == nil {
			other = ex
		}
	}
	if path == nil || other == nil {
		t.Fatal("fixture must hold a path and a non-path pattern")
	}
	for _, ex := range []*pattern.Explanation{path, other} {
		streamLocalPosition(ctx, g, ex.P, s, ex.Count(), -1) // warm the pools and the pattern's lazy caches
		allocs := testing.AllocsPerRun(200, func() {
			streamLocalPosition(ctx, g, ex.P, s, ex.Count(), -1)
		})
		if allocs != 0 {
			t.Errorf("steady-state streamLocalPosition(%v) allocates %.1f times per op; want 0", ex.P, allocs)
		}
	}
}

// BenchmarkLocalPosition positions every explanation of the heaviest
// pair of the benchmark's population (preset medium, seed 42) through
// the bare kernel: unlimited, and under the limit a top-10 ranking of
// mostly tied explanations settles at.
func BenchmarkLocalPosition(b *testing.B) {
	opt, err := kbgen.PresetOptions("medium", 42)
	if err != nil {
		b.Fatal(err)
	}
	g := kbgen.Generate(opt)
	s, e := g.NodeByName("film_6255"), g.NodeByName("film_6521")
	if s == kb.InvalidNode || e == kb.InvalidNode {
		b.Fatal("benchmark pair missing from the medium preset")
	}
	es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, enumerate.Config{})
	ctx := context.Background()
	for _, limit := range []int{-1, 0} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, ex := range es {
					streamLocalPosition(ctx, g, ex.P, s, ex.Count(), limit)
				}
			}
		})
	}
}
