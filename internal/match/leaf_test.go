package match

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rex/internal/kb"
	"rex/internal/obs"
	"rex/internal/pattern"
)

// leafGraph builds a graph over the labels d (directed), q (directed) and
// u (undirected) — label IDs 0, 1 and 2 — from comma-separated edges
// written "from label to"; nodes are created in order of first mention,
// s and e first.
func leafGraph(t *testing.T, edges string) *kb.Graph {
	t.Helper()
	g := kb.New()
	g.MustLabel("d", true)
	g.MustLabel("q", true)
	g.MustLabel("u", false)
	node := func(name string) kb.NodeID {
		if id := g.NodeByName(name); id != kb.InvalidNode {
			return id
		}
		return g.AddNode(name, "t")
	}
	node("s")
	node("e")
	for _, e := range strings.Split(edges, ",") {
		f := strings.Fields(e)
		g.MustAddEdge(node(f[0]), node(f[2]), g.LabelByName(f[1]))
	}
	return g
}

// fan writes n edges from a format with one %d, for leafGraph.
func fan(n int, format string) string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf(format, i))
	}
	return strings.Join(out, ",")
}

// tracedDense runs CountByEndDense under a trace and returns the table,
// the touched ends and the bindings tried.
func tracedDense(t *testing.T, g *kb.Graph, p *pattern.Pattern, start kb.NodeID) (map[kb.NodeID]int, int, int64) {
	t.Helper()
	tr := obs.NewTrace()
	c := AcquireEndCounter(g, 0, -1)
	defer c.Release()
	if err := CountByEndDense(obs.NewContext(context.Background(), tr), g, p, start, c); err != nil {
		t.Fatal(err)
	}
	return c.Table(), len(c.touched), tr.Report().Bindings
}

// TestLeafCountNamedCases pins the leaf identity — instances below a node
// with only x unassigned = |C(x)| − #{bound nodes in C(x)} — where random
// patterns may not go: each way a bound node can sit inside the leaf's
// candidate set, each kind of leaf edge, and the two orders of the last
// two variables. Every case is counted three ways (Count per end,
// CountByEnd, CountByEndDense), compared with the brute-force oracle and
// with the table written out here, unfrozen and frozen; ForEach must
// still bind every instance of the same patterns.
func TestLeafCountNamedCases(t *testing.T) {
	const S, E = pattern.Start, pattern.End
	d, q, u := kb.LabelID(0), kb.LabelID(1), kb.LabelID(2)
	for _, c := range []struct {
		name    string
		edges   string
		p       []pattern.Edge
		want    map[string]int
		ceiling int64 // bindings, frozen; 0: not pinned
	}{
		{name: "single-edge leaf, the start inside its candidate set",
			edges: "s d a, a d e, w d a",
			p:     []pattern.Edge{{U: S, V: 2, Label: d}, {U: 2, V: E, Label: d}, {U: 3, V: 2, Label: d}},
			want:  map[string]int{"e": 1}},
		{name: "the end inside it",
			edges: "s u a, a d e, e d a, w d a, a d f",
			p:     []pattern.Edge{{U: S, V: 2, Label: u}, {U: 2, V: E, Label: d}, {U: 3, V: 2, Label: d}},
			want:  map[string]int{"e": 1, "f": 2}},
		{name: "a third bound variable inside it",
			edges: "s u a, a d e, w1 d a, w2 d a, w3 d a",
			p:     []pattern.Edge{{U: S, V: 2, Label: u}, {U: 2, V: E, Label: d}, {U: 3, V: 2, Label: d}, {U: 4, V: 2, Label: d}},
			want:  map[string]int{"e": 6}},
		{name: "start, end and a third variable inside it: e has no instance and stays untouched",
			edges: "s d a, a d e, e d a, w d a, a d f",
			p:     []pattern.Edge{{U: S, V: 2, Label: d}, {U: 2, V: E, Label: d}, {U: 3, V: 2, Label: d}, {U: 4, V: 2, Label: d}},
			want:  map[string]int{"f": 2}},
		{name: "undirected leaf edge",
			edges: "s d a, s u a, a d e, a u w1, w2 u a, w3 d a",
			p:     []pattern.Edge{{U: S, V: 2, Label: d}, {U: 2, V: E, Label: d}, {U: 2, V: 3, Label: u}},
			want:  map[string]int{"e": 2}},
		{name: "a directed label in both orientations",
			edges: "s d a, a d e, e d a, w1 d a, a d w1, w2 d a, a d w3",
			p:     []pattern.Edge{{U: S, V: 2, Label: d}, {U: 2, V: E, Label: d}, {U: 3, V: 2, Label: d}, {U: 2, V: 3, Label: d}},
			want:  map[string]int{"e": 1, "w1": 1, "w3": 2}},
		{name: "x and the end independent: x is sized once and added to every end",
			edges:   "s d a, a d e, " + fan(30, "w%d q a") + "," + fan(10, "a d f%d"),
			p:       []pattern.Edge{{U: S, V: 2, Label: d}, {U: 2, V: E, Label: d}, {U: 3, V: 2, Label: q}},
			want:    map[string]int{"e": 30, "f0": 30, "f1": 30, "f2": 30, "f3": 30, "f4": 30, "f5": 30, "f6": 30, "f7": 30, "f8": 30, "f9": 30},
			ceiling: 1 + 30 + 11},
		{name: "an empty leaf in the independent case: no end is tried",
			edges:   "s d a, a d e, " + fan(3, "w%d d a") + "," + fan(5, "z%d d s") + "," + fan(10, "a d f%d"),
			p:       []pattern.Edge{{U: S, V: 2, Label: d}, {U: 2, V: E, Label: d}, {U: 3, V: 2, Label: d}, {U: 3, V: S, Label: d}},
			want:    map[string]int{},
			ceiling: 1 + 5},
		{name: "x adjacent to the end: the smallest span decides, not the end",
			edges:   "s d a, a d e, w q a, w d e, " + fan(50, "a d f%d"),
			p:       []pattern.Edge{{U: S, V: 2, Label: d}, {U: 2, V: E, Label: d}, {U: 3, V: 2, Label: q}, {U: 3, V: E, Label: d}},
			want:    map[string]int{"e": 1},
			ceiling: 3},
	} {
		g := leafGraph(t, c.edges)
		nv := 0
		for _, e := range c.p {
			nv = max(nv, int(e.U)+1, int(e.V)+1)
		}
		p := pattern.MustNew(g, nv, c.p)
		s := g.NodeByName("s")
		want := make(map[kb.NodeID]int)
		for name, n := range c.want {
			want[g.NodeByName(name)] = n
		}
		for _, frozen := range []bool{false, true} {
			if frozen {
				g.Freeze()
			}
			oracle := bruteForce(g, p, s, kb.InvalidNode)
			if got := endTable(oracle); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the case is mis-stated: brute force finds %v, want %v", c.name, got, want)
			}
			if got := CountByEnd(g, p, s); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (frozen=%v): CountByEnd = %v, want %v", c.name, frozen, got, want)
			}
			table, touched, tried := tracedDense(t, g, p, s)
			if !reflect.DeepEqual(table, want) || touched != len(want) {
				t.Errorf("%s (frozen=%v): dense table %v over %d touched ends, want %v", c.name, frozen, table, touched, want)
			}
			if frozen && c.ceiling > 0 && (tried == 0 || tried > c.ceiling) {
				t.Errorf("%s: %d bindings tried, want 1..%d", c.name, tried, c.ceiling)
			}
			for id := kb.NodeID(1); int(id) < g.NumNodes(); id++ {
				if got := Count(g, p, s, id); got != want[id] {
					t.Errorf("%s (frozen=%v): Count(end=%s) = %d, want %d", c.name, frozen, g.NodeName(id), got, want[id])
				}
			}
			each := 0
			seen := asKeySet(oracle)
			ForEach(g, p, s, kb.InvalidNode, func(in pattern.Instance) bool {
				each++
				delete(seen, in.Key())
				return true
			})
			if each != len(oracle) || len(seen) != 0 {
				t.Errorf("%s (frozen=%v): ForEach bound %d instances and missed %d of the oracle's %d", c.name, frozen, each, len(seen), len(oracle))
			}
		}
	}
}

// TestLeafMemoDoesNotOutliveRun reuses one pooled matcher on two graphs
// with the same node IDs, pattern and start that differ in one leaf edge:
// a candidate-set size remembered from one run would answer the other.
func TestLeafMemoDoesNotOutliveRun(t *testing.T) {
	const edges = "s d a, a d e, w1 d a, w2 d s"
	one := leafGraph(t, edges)
	two := leafGraph(t, edges+", w2 d a")
	one.Freeze()
	two.Freeze()
	es := []pattern.Edge{{U: pattern.Start, V: 2, Label: 0}, {U: 2, V: pattern.End, Label: 0}, {U: 3, V: 2, Label: 0}}
	p1, p2 := pattern.MustNew(one, 4, es), pattern.MustNew(two, 4, es)
	s, e := one.NodeByName("s"), one.NodeByName("e")
	for i := 0; i < 20; i++ {
		if a, b := Count(one, p1, s, e), Count(two, p2, s, e); a != 1 || b != 2 {
			t.Fatalf("round %d: counts %d and %d, want 1 and 2", i, a, b)
		}
	}
}

// TestLeafMemoKeyNamesTheVariable: which variable is bound last depends
// on the bindings above it, so one run can size two different variables,
// and their neighbourhoods can read the same — here v4's {start, v2 = node
// 0} and v3's {start}, a neighbour bound to node 0 being indistinguishable
// from no neighbour in that slot. The variable is part of the key.
//
//	start-[r]->v2, start-[d]->v3, start-[q]->v4, v2-[q]->v4    (end bound, isolated)
//
// With v2 = z (node 0, a 4-wide q span) v3 goes first and v4 is sized: 4.
// With v2 = y (a 1-wide q span) v4 goes first and v3 is sized: 3, not 4.
func TestLeafMemoKeyNamesTheVariable(t *testing.T) {
	g := kb.New()
	d, q, r := g.MustLabel("d", true), g.MustLabel("q", true), g.MustLabel("r", true)
	z, s, e, y := g.AddNode("z", "t"), g.AddNode("s", "t"), g.AddNode("e", "t"), g.AddNode("y", "t")
	g.MustAddEdge(s, z, r)
	g.MustAddEdge(s, y, r)
	for i := 0; i < 5; i++ {
		qi := g.AddNode(fmt.Sprintf("q%d", i), "t")
		g.MustAddEdge(s, qi, q)
		if i < 4 {
			g.MustAddEdge(z, qi, q)
		}
		if i < 3 {
			g.MustAddEdge(s, g.AddNode(fmt.Sprintf("d%d", i), "t"), d)
		}
		if i == 0 {
			g.MustAddEdge(y, qi, q)
		}
	}
	p := pattern.MustNew(g, 5, []pattern.Edge{
		{U: pattern.Start, V: 2, Label: r}, {U: pattern.Start, V: 3, Label: d},
		{U: pattern.Start, V: 4, Label: q}, {U: 2, V: 4, Label: q},
	})
	for _, frozen := range []bool{false, true} {
		if frozen {
			g.Freeze()
		}
		if got, want := Count(g, p, s, e), len(bruteForce(g, p, s, e)); got != want || want != 3*4+3*1 {
			t.Errorf("frozen=%v: Count = %d, brute force %d, want 15", frozen, got, want)
		}
	}
}

// TestLeafScanHonoursCancellation: a leaf scan is as long as a span, so
// it runs on the cancellation clock like the bindings above it — a done
// context stops a 5 000-candidate scan at the first check, and nothing
// is added for a leaf that was not counted to the end.
func TestLeafScanHonoursCancellation(t *testing.T) {
	g := leafGraph(t, "s d a, a d e, "+fan(5000, "w%d d a"))
	g.Freeze()
	p := pattern.MustNew(g, 4, []pattern.Edge{{U: pattern.Start, V: 2, Label: 0}, {U: 2, V: pattern.End, Label: 0}, {U: 3, V: 2, Label: 0}})
	s := g.NodeByName("s")
	if n := Count(g, p, s, g.NodeByName("e")); n != 5000 {
		t.Fatalf("uncancelled count = %d, want 5000", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := obs.NewTrace()
	c := AcquireEndCounter(g, 0, -1)
	defer c.Release()
	err := CountByEndDense(obs.NewContext(ctx, tr), g, p, s, c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tried := tr.Report().Bindings; tried != ctxCheckInterval {
		t.Errorf("%d bindings tried before the cancellation was seen, want %d", tried, ctxCheckInterval)
	}
	if len(c.touched) != 0 {
		t.Errorf("a cancelled leaf scan added %v", c.Table())
	}
	if n, err := CountContext(ctx, g, p, s, g.NodeByName("e")); !errors.Is(err, context.Canceled) || n != 0 {
		t.Errorf("CountContext = (%d, %v), want (0, context.Canceled)", n, err)
	}
}

// TestLeafCountedNotEnumerated pins the counting run's work as counts on
// leafFixtures, with the tables ForEach's instances add up to. Binding
// the last variable tried 739 609 and 390 663 candidates.
func TestLeafCountedNotEnumerated(t *testing.T) {
	g, fs := leafFixtures(t)
	for i, ceiling := range []int64{20_000, 30_000} {
		f := fs[i]
		want, instances := make(map[kb.NodeID]int), 0
		ForEach(g, f.p, f.start, kb.InvalidNode, func(in pattern.Instance) bool {
			want[in[pattern.End]]++
			instances++
			return true
		})
		table, _, tried := tracedDense(t, g, f.p, f.start)
		t.Logf("%s %v: %d instances over %d ends, %d bindings tried", f.name, f.p, instances, len(want), tried)
		if len(want) < 2 || !reflect.DeepEqual(table, want) {
			t.Errorf("%s: counted table has %d ends, ForEach's %d; tables differ", f.name, len(table), len(want))
		}
		if tried == 0 || tried > ceiling {
			t.Errorf("%s: %d bindings tried, want 1..%d", f.name, tried, ceiling)
		}
	}
}
