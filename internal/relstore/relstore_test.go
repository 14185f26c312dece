package relstore

import (
	"strings"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/match"
	"rex/internal/pattern"
)

func TestFromGraphRowCounts(t *testing.T) {
	gb := kb.NewBuilder()
	a := gb.AddNode("a", "t")
	b := gb.AddNode("b", "t")
	c := gb.AddNode("c", "t")
	d := gb.MustLabel("directed", true)
	u := gb.MustLabel("undirected", false)
	gb.MustAddEdge(a, b, d)
	gb.MustAddEdge(b, c, u)
	g := gb.Build()
	st := FromGraph(g)
	// One directed row plus a doubled undirected edge.
	if st.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", st.NumRows())
	}
	if !st.Has(a, b, d) || st.Has(b, a, d) {
		t.Error("directed row orientation wrong")
	}
	if !st.Has(b, c, u) || !st.Has(c, b, u) {
		t.Error("undirected rows must exist in both orientations")
	}
	if got := st.Lookup1(a, d); len(got) != 1 || got[0] != b {
		t.Errorf("Lookup1 = %v", got)
	}
	if got := st.Lookup2(b, d); len(got) != 1 || got[0] != a {
		t.Errorf("Lookup2 = %v", got)
	}
}

// TestGroupCountsMatchGraphMatcher is the cross-engine test: the
// relational self-join evaluation must agree with the graph matcher on
// every enumerated pattern of several real pairs.
func TestGroupCountsMatchGraphMatcher(t *testing.T) {
	g := kbgen.Sample()
	st := FromGraph(g)
	pairs := [][2]string{
		{"brad_pitt", "angelina_jolie"},
		{"kate_winslet", "leonardo_dicaprio"},
		{"tom_cruise", "will_smith"},
	}
	for _, names := range pairs {
		start := g.NodeByName(names[0])
		end := g.NodeByName(names[1])
		es := enumerate.Explanations(g, start, end, enumerate.Config{})
		for _, ex := range es {
			q := Compile(g, ex.P, start)
			got := st.GroupCounts(q)
			want := match.CountByEnd(g, ex.P, start)
			if len(got) != len(want) {
				t.Errorf("%v %v: %d groups vs %d", names, ex.P, len(got), len(want))
				continue
			}
			for endv, c := range want {
				if got[endv] != c {
					t.Errorf("%v %v: end %s count %d vs %d",
						names, ex.P, g.NodeName(endv), got[endv], c)
				}
			}
			// The pair's own group count equals the explanation's
			// enumerated instance count.
			if got[end] != ex.Count() {
				t.Errorf("%v %v: SQL count %d != enumerated %d",
					names, ex.P, got[end], ex.Count())
			}
		}
	}
}

// TestPositionHavingMatchesDefinition compares HAVING count > c semantics
// against a direct computation from GroupCounts.
func TestPositionHavingMatchesDefinition(t *testing.T) {
	g := kbgen.Sample()
	st := FromGraph(g)
	start := g.NodeByName("brad_pitt")
	end := g.NodeByName("angelina_jolie")
	es := enumerate.Explanations(g, start, end, enumerate.Config{})
	for _, ex := range es {
		q := Compile(g, ex.P, start)
		counts := st.GroupCounts(q)
		c := ex.Count()
		want := 0
		for _, cnt := range counts {
			if cnt > c {
				want++
			}
		}
		got, ok := st.PositionHaving(q, c, -1)
		if !ok || got != want {
			t.Errorf("%v: position %d ok=%v, want %d", ex.P, got, ok, want)
		}
		// LIMIT semantics: limit == position keeps the result; limit
		// below aborts.
		if got2, ok2 := st.PositionHaving(q, c, want); !ok2 || got2 != want {
			t.Errorf("%v: limit==position pruned (ok=%v)", ex.P, ok2)
		}
		if want > 0 {
			if _, ok3 := st.PositionHaving(q, c, want-1); ok3 {
				t.Errorf("%v: limit below position not aborted", ex.P)
			}
		}
	}
}

func TestSQLRendering(t *testing.T) {
	g := kbgen.Sample()
	star := g.LabelByName(kbgen.RelStarring)
	costar := pattern.MustNew(g, 3, []pattern.Edge{
		{U: 2, V: pattern.Start, Label: star},
		{U: 2, V: pattern.End, Label: star},
	})
	sql := SQL(g, costar, 1, 20)
	for _, want := range []string{
		"SELECT v_start, v_end, count(*) AS count",
		"R AS R1", "R AS R2",
		"R1.rel = 'starring'",
		"GROUP BY v_start, v_end",
		"HAVING count > 1",
		"LIMIT 21",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	if strings.Contains(SQL(g, costar, 1, -1), "LIMIT") {
		t.Error("negative limit must omit the LIMIT clause")
	}
}
