package match

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/pattern"
)

// bruteForce enumerates instances by trying every assignment of nodes to
// variables — the trivially correct oracle for small graphs.
func bruteForce(g *kb.Graph, p *pattern.Pattern, start, end kb.NodeID) []pattern.Instance {
	n := p.NumVars()
	inst := make(pattern.Instance, n)
	inst[pattern.Start] = start
	var out []pattern.Instance
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			for _, e := range p.Edges() {
				if !g.HasEdge(inst[e.U], inst[e.V], e.Label) {
					return
				}
			}
			out = append(out, inst.Clone())
			return
		}
		if v == int(pattern.Start) {
			rec(v + 1)
			return
		}
		if v == int(pattern.End) && end != kb.InvalidNode {
			inst[v] = end
			rec(v + 1)
			return
		}
		// Injectivity: variables are assigned in index order, so a
		// candidate only needs to differ from the earlier assignments
		// (which include both targets, at indexes 0 and 1).
		for id := kb.NodeID(0); int(id) < g.NumNodes(); id++ {
			conflict := false
			for u := 0; u < v; u++ {
				if inst[u] == id {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			inst[v] = id
			rec(v + 1)
		}
	}
	rec(0)
	return out
}

// endTable groups instances by their end: the local distribution the
// counting entry points must reproduce, ends without an instance absent.
func endTable(ins []pattern.Instance) map[kb.NodeID]int {
	out := make(map[kb.NodeID]int)
	for _, in := range ins {
		out[in[pattern.End]]++
	}
	return out
}

func asKeySet(ins []pattern.Instance) map[pattern.InstanceKey]struct{} {
	out := make(map[pattern.InstanceKey]struct{}, len(ins))
	for _, in := range ins {
		out[in.Key()] = struct{}{}
	}
	return out
}

func TestMatcherAgainstBruteForce(t *testing.T) {
	g := kbgen.Sample()
	star := g.LabelByName(kbgen.RelStarring)
	spouse := g.LabelByName(kbgen.RelSpouse)
	dir := g.LabelByName(kbgen.RelDirectedBy)
	brad := g.NodeByName("brad_pitt")
	angelina := g.NodeByName("angelina_jolie")

	patterns := []*pattern.Pattern{
		pattern.MustNew(g, 2, []pattern.Edge{{U: pattern.Start, V: pattern.End, Label: spouse}}),
		pattern.MustNew(g, 3, []pattern.Edge{
			{U: 2, V: pattern.Start, Label: star}, {U: 2, V: pattern.End, Label: star},
		}),
		pattern.MustNew(g, 4, []pattern.Edge{
			{U: 2, V: pattern.Start, Label: star},
			{U: 2, V: 3, Label: dir},
			{U: 2, V: pattern.End, Label: star},
		}),
	}
	for i, p := range patterns {
		got := asKeySet(Find(g, p, brad, angelina, Options{}))
		want := asKeySet(bruteForce(g, p, brad, angelina))
		if len(got) != len(want) {
			t.Errorf("pattern %d: matcher %d vs brute force %d instances", i, len(got), len(want))
			continue
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("pattern %d: missing instance", i)
			}
		}
	}
}

func TestFreeEndEnumeration(t *testing.T) {
	g := kbgen.Sample()
	star := g.LabelByName(kbgen.RelStarring)
	brad := g.NodeByName("brad_pitt")
	costar := pattern.MustNew(g, 3, []pattern.Edge{
		{U: 2, V: pattern.Start, Label: star}, {U: 2, V: pattern.End, Label: star},
	})
	counts := CountByEnd(g, costar, brad)
	// Brad's direct co-stars in the sample KB (from the film casts).
	julia := g.NodeByName("julia_roberts")
	if counts[julia] != 3 { // oceans 11, oceans 12, the mexican
		t.Errorf("julia_roberts co-star count = %d, want 3", counts[julia])
	}
	angelina := g.NodeByName("angelina_jolie")
	if counts[angelina] != 1 { // mr & mrs smith
		t.Errorf("angelina co-star count = %d, want 1", counts[angelina])
	}
	if _, ok := counts[brad]; ok {
		t.Error("the start entity must not appear as an end")
	}
	// Count with a fixed end agrees with the grouped count.
	if got := Count(g, costar, brad, julia); got != 3 {
		t.Errorf("Count(brad, julia) = %d, want 3", got)
	}
}

func TestFindLimit(t *testing.T) {
	g := kbgen.Sample()
	star := g.LabelByName(kbgen.RelStarring)
	brad := g.NodeByName("brad_pitt")
	costar := pattern.MustNew(g, 3, []pattern.Edge{
		{U: 2, V: pattern.Start, Label: star}, {U: 2, V: pattern.End, Label: star},
	})
	all := Find(g, costar, brad, kb.InvalidNode, Options{})
	if len(all) < 3 {
		t.Fatalf("expected several free-end instances, got %d", len(all))
	}
	two := Find(g, costar, brad, kb.InvalidNode, Options{Limit: 2})
	if len(two) != 2 {
		t.Fatalf("Limit=2 returned %d", len(two))
	}
}

func TestNoMatchWhenEdgeAbsent(t *testing.T) {
	g := kbgen.Sample()
	spouse := g.LabelByName(kbgen.RelSpouse)
	p := pattern.MustNew(g, 2, []pattern.Edge{{U: pattern.Start, V: pattern.End, Label: spouse}})
	brad := g.NodeByName("brad_pitt")
	tom := g.NodeByName("tom_cruise")
	if got := Count(g, p, brad, tom); got != 0 {
		t.Errorf("brad and tom are not married; count = %d", got)
	}
}

func TestDirectedOrientationRespected(t *testing.T) {
	g := kbgen.Sample()
	star := g.LabelByName(kbgen.RelStarring)
	brad := g.NodeByName("brad_pitt")
	troy := g.NodeByName("troy")
	// starring goes film→actor: pattern start→end matches (troy, brad)
	// but not (brad, troy).
	p := pattern.MustNew(g, 2, []pattern.Edge{{U: pattern.Start, V: pattern.End, Label: star}})
	if got := Count(g, p, troy, brad); got != 1 {
		t.Errorf("film→actor orientation: count = %d, want 1", got)
	}
	if got := Count(g, p, brad, troy); got != 0 {
		t.Errorf("reverse orientation: count = %d, want 0", got)
	}
}

// TestQuickMatcherMatchesBruteForce property-checks the matcher against
// the brute-force oracle on random small graphs and random patterns of
// two to five variables — a spanning tree plus up to two closing edges,
// so variables with several edges into the bound set exercise the
// per-binding choice and the in-span verification, now and then with a
// tree edge dropped, so a component off the start falls back to the full
// scan — with the end bound and free, on the built graph and on an
// overlay of depth 2 that deleted edges. Find must yield the oracle's instances; the
// counting entry points, which do not bind the last variable, its counts:
// Count for every end, CountByEnd, CountByEndDense's table, and position
// and pruning decision under LIMIT p.
func TestQuickMatcherMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gb := kb.NewBuilder()
		n := 5 + rng.Intn(6)
		for i := 0; i < n; i++ {
			gb.AddNode(string(rune('a'+i)), "t")
		}
		labels := []kb.LabelID{
			gb.MustLabel("d", true), gb.MustLabel("u", false),
		}
		var added []kb.Edge
		for i := 0; i < 3*n; i++ {
			a, b := kb.NodeID(rng.Intn(n)), kb.NodeID(rng.Intn(n))
			if rng.Intn(4) == 0 {
				b = 2 // a hub: spans of very different widths
			}
			if a != b {
				l := labels[rng.Intn(2)]
				gb.AddEdge(a, b, l)
				added = append(added, kb.Edge{From: a, To: b, Label: l})
			}
		}
		g := gb.Build()
		start, end := kb.NodeID(0), kb.NodeID(1)

		// Random small pattern, connected unless a tree edge is dropped.
		nv := 2 + rng.Intn(4)
		drop := -1
		if rng.Intn(4) == 0 {
			drop = 1 + rng.Intn(nv-1)
		}
		var edges []pattern.Edge
		for i := 1; i < nv; i++ {
			u := pattern.VarID(rng.Intn(i))
			v := pattern.VarID(i)
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			if i != drop {
				edges = append(edges, pattern.Edge{U: u, V: v, Label: labels[rng.Intn(2)]})
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			u, v := pattern.VarID(rng.Intn(nv)), pattern.VarID(rng.Intn(nv))
			if u != v {
				edges = append(edges, pattern.Edge{U: u, V: v, Label: labels[rng.Intn(2)]})
			}
		}
		p, err := pattern.New(g, nv, edges)
		if err != nil {
			return true
		}
		agrees := func(g *kb.Graph) bool {
			for _, end := range []kb.NodeID{end, kb.InvalidNode} {
				want := asKeySet(bruteForce(g, p, start, end))
				got := Find(g, p, start, end, Options{})
				if len(got) != len(want) || len(asKeySet(got)) != len(want) {
					return false
				}
				for _, in := range got {
					if _, ok := want[in.Key()]; !ok {
						return false
					}
				}
			}
			table := endTable(bruteForce(g, p, start, kb.InvalidNode))
			for id := kb.NodeID(1); int(id) < g.NumNodes(); id++ {
				if Count(g, p, start, id) != table[id] {
					return false
				}
			}
			if !reflect.DeepEqual(CountByEnd(g, p, start), table) {
				return false
			}
			for _, a := range []int{0, 1, 2, 5} {
				for _, limit := range []int{-1, 0, 1, 3} {
					pos := 0
					for _, n := range table {
						if n > a {
							pos++
						}
					}
					c := AcquireEndCounter(g, a, limit)
					err := CountByEndDense(context.Background(), g, p, start, c)
					pruned := limit >= 0 && pos > limit
					ok := err == nil && c.Pruned() == pruned &&
						(pruned || c.Exceeded() == pos && reflect.DeepEqual(c.Table(), table))
					c.Release()
					if !ok {
						return false
					}
				}
			}
			return true
		}
		if !agrees(g) {
			return false
		}
		for depth := 0; depth < 2; depth++ {
			b, err := kb.NewOverlayBuilder(g)
			if err != nil {
				t.Fatal(err)
			}
			e := added[rng.Intn(len(added))]
			if depth == 0 {
				e.From = b.AddNode("new", "t")
				_, err = b.AddEdge(e.From, e.To, e.Label)
			} else {
				_, err = b.RemoveEdge(e.From, e.To, e.Label)
			}
			if err != nil {
				t.Fatal(err)
			}
			g = b.Graph()
		}
		return g.Overlay().Depth == 2 && agrees(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestVerifiedAnchorsRespectOrientation pins the in-span verification of
// a variable's non-generating anchors: of three nodes adjacent to both
// targets under one directed label only the one with start→v→end
// orientation is an instance, whichever target's span generates the
// candidates (fillers make either side the shorter one).
func TestVerifiedAnchorsRespectOrientation(t *testing.T) {
	for _, fillAt := range []string{"s", "e"} {
		gb := kb.NewBuilder()
		d := gb.MustLabel("d", true)
		s, e := gb.AddNode("s", "t"), gb.AddNode("e", "t")
		x, y, z := gb.AddNode("x", "t"), gb.AddNode("y", "t"), gb.AddNode("z", "t")
		gb.MustAddEdge(s, x, d)
		gb.MustAddEdge(x, e, d)
		gb.MustAddEdge(s, y, d)
		gb.MustAddEdge(e, y, d) // second hop reversed
		gb.MustAddEdge(z, s, d) // first hop reversed
		gb.MustAddEdge(z, e, d)
		for i := 0; i < 4; i++ {
			gb.MustAddEdge(gb.NodeByName(fillAt), gb.AddNode(string(rune('f'+i)), "t"), d)
		}
		g := gb.Build()
		p := pattern.MustNew(g, 3, []pattern.Edge{
			{U: pattern.Start, V: 2, Label: d},
			{U: 2, V: pattern.End, Label: d},
		})
		got := Find(g, p, s, e, Options{})
		if len(got) != 1 || got[0][2] != x {
			t.Errorf("fillers at %s: instances %v, want only v2=x", fillAt, got)
		}
	}
}
