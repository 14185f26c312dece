package measure

import (
	"math"
	"testing"
	"testing/quick"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/pattern"
)

func sampleCtx(t *testing.T, start, end string) (*Context, []*pattern.Explanation) {
	t.Helper()
	g := kbgen.Sample()
	s := g.NodeByName(start)
	e := g.NodeByName(end)
	if s == kb.InvalidNode || e == kb.InvalidNode {
		t.Fatalf("missing entities %s/%s", start, end)
	}
	es := enumerate.Explanations(g, s, e, enumerate.Config{})
	return &Context{G: g, Start: s, End: e}, es
}

func TestScoreCmp(t *testing.T) {
	cases := []struct {
		a, b Score
		want int
	}{
		{Score{1}, Score{2}, -1},
		{Score{2}, Score{1}, 1},
		{Score{1, 5}, Score{1, 5}, 0},
		{Score{1, 5}, Score{1, 4}, 1},
		{Score{-3, 0}, Score{-3}, 0}, // missing trailing = 0
		{Score{-3, -1}, Score{-3}, -1},
		{nil, nil, 0},
	}
	for i, tc := range cases {
		if got := tc.a.Cmp(tc.b); got != tc.want {
			t.Errorf("case %d: Cmp = %d, want %d", i, got, tc.want)
		}
		if (tc.want < 0) != tc.a.Less(tc.b) {
			t.Errorf("case %d: Less inconsistent with Cmp", i)
		}
	}
}

func TestQuickScoreCmpAntisymmetric(t *testing.T) {
	f := func(a, b []float64) bool {
		sa, sb := Score(a), Score(b)
		return sa.Cmp(sb) == -sb.Cmp(sa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeMeasure(t *testing.T) {
	ctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	for _, ex := range es {
		s := Size{}.Score(ctx, ex)
		if len(s) != 1 || s[0] != -float64(ex.P.NumVars()) {
			t.Fatalf("size score = %v for %d vars", s, ex.P.NumVars())
		}
	}
	if !(Size{}).AntiMonotonic() {
		t.Error("size must be anti-monotonic")
	}
}

func TestCountAndMonocountScores(t *testing.T) {
	ctx, es := sampleCtx(t, "brad_pitt", "julia_roberts")
	g := ctx.G
	star := g.LabelByName(kbgen.RelStarring)
	costarKey := pattern.MustNew(g, 3, []pattern.Edge{
		{U: 2, V: pattern.Start, Label: star}, {U: 2, V: pattern.End, Label: star},
	}).CanonicalKey()
	found := false
	for _, ex := range es {
		if ex.P.CanonicalKey() != costarKey {
			continue
		}
		found = true
		// Brad and Julia co-star in 3 sample films.
		if c := (Count{}).Score(ctx, ex); c[0] != 3 {
			t.Errorf("costar count = %v, want 3", c)
		}
		if m := (Monocount{}).Score(ctx, ex); m[0] != 3 {
			t.Errorf("costar monocount = %v, want 3", m)
		}
		// The independent oracle agrees with the enumerated count.
		if o := CountOracle(ctx, ex); o != 3 {
			t.Errorf("count oracle = %d, want 3", o)
		}
	}
	if !found {
		t.Fatal("costar explanation not enumerated")
	}
	if (Count{}).AntiMonotonic() {
		t.Error("count is not anti-monotonic (paper, Section 4.2)")
	}
	if !(Monocount{}).AntiMonotonic() {
		t.Error("monocount must be anti-monotonic")
	}
}

func TestRandomWalkMeasure(t *testing.T) {
	ctx, _ := sampleCtx(t, "brad_pitt", "angelina_jolie")
	g := ctx.G
	star := g.LabelByName(kbgen.RelStarring)
	spouse := g.LabelByName(kbgen.RelSpouse)

	direct := pattern.MustNew(g, 2, []pattern.Edge{
		{U: pattern.Start, V: pattern.End, Label: spouse},
	})
	wedge := pattern.MustNew(g, 3, []pattern.Edge{
		{U: 2, V: pattern.Start, Label: star}, {U: 2, V: pattern.End, Label: star},
	})
	exDirect := pattern.NewExplanation(direct, []pattern.Instance{{ctx.Start, ctx.End}})
	exWedge := pattern.NewExplanation(wedge, []pattern.Instance{{ctx.Start, ctx.End, 0}})

	sd := RandomWalk{}.Score(ctx, exDirect)
	sw := RandomWalk{}.Score(ctx, exWedge)
	if !(sd[0] > sw[0]) {
		t.Errorf("direct edge (%v) must deliver more current than a 2-hop wedge (%v)", sd, sw)
	}
	if math.Abs(sd[0]-1) > 1e-9 || math.Abs(sw[0]-0.5) > 1e-9 {
		t.Errorf("conductances: direct %v (want 1), wedge %v (want 0.5)", sd[0], sw[0])
	}
	if (RandomWalk{}).AntiMonotonic() {
		t.Error("random walk is not anti-monotonic")
	}
}

func TestCombinedLexicographic(t *testing.T) {
	ctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	combo := Combined{Primary: Size{}, Secondary: Monocount{}}
	if combo.Name() != "size+monocount" {
		t.Errorf("combo name = %q", combo.Name())
	}
	if !combo.AntiMonotonic() {
		t.Error("size+monocount must be anti-monotonic")
	}
	if (Combined{Primary: Size{}, Secondary: Count{}}).AntiMonotonic() {
		t.Error("size+count must not be anti-monotonic")
	}
	for _, ex := range es {
		s := combo.Score(ctx, ex)
		if len(s) != 2 {
			t.Fatalf("combined score has %d components", len(s))
		}
		if s[0] != -float64(ex.P.NumVars()) {
			t.Fatalf("primary component wrong: %v", s)
		}
	}
}

func TestCombinedScoreWithLimit(t *testing.T) {
	ctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	combo := Combined{Primary: Size{}, Secondary: LocalPosition{}}
	for _, ex := range es {
		want := combo.Score(ctx, ex)
		// Nil threshold: full score.
		got, ok := combo.ScoreWithLimit(ctx, ex, nil)
		if !ok || got.Cmp(want) != 0 {
			t.Fatalf("nil threshold: got %v ok=%v, want %v", got, ok, want)
		}
		// Threshold strictly below: full score, ok.
		below := append(Score{}, want...)
		below[len(below)-1]--
		got, ok = combo.ScoreWithLimit(ctx, ex, below)
		if !ok || got.Cmp(want) != 0 {
			t.Fatalf("low threshold: got %v ok=%v, want %v", got, ok, want)
		}
		// Threshold with a strictly better primary: pruned without
		// touching the secondary.
		betterPrimary := Score{want[0] + 1, -1e18}
		if _, ok = combo.ScoreWithLimit(ctx, ex, betterPrimary); ok {
			t.Fatal("primary-dominated explanation not pruned")
		}
	}
}

func TestContextSampleStartsDeterministic(t *testing.T) {
	g := kbgen.Sample()
	a := SampleStarts(g, 20, 7)
	b := SampleStarts(g, 20, 7)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampleStarts not deterministic")
		}
		if g.Degree(a[i]) == 0 {
			t.Fatal("sampled a zero-degree start")
		}
	}
	c := SampleStarts(g, 20, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
}

// TestScoresIdenticalWithAndWithoutEvaluator pins that Context.Eval is
// ignored: every measure scores every explanation identically whether
// or not the context carries an Evaluator.
func TestScoresIdenticalWithAndWithoutEvaluator(t *testing.T) {
	bare, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	bare.SampleStarts = SampleStarts(bare.G, 8, 7)
	withEval := *bare
	withEval.Eval = NewEvaluator(bare.G)
	measures := []Measure{
		Size{}, RandomWalk{}, Count{}, Monocount{},
		LocalPosition{}, GlobalPosition{},
		LocalDeviation{}, GlobalDeviation{},
		Combined{Primary: Size{}, Secondary: LocalPosition{}},
		Combined{Primary: Size{}, Secondary: Monocount{}},
	}
	for _, m := range measures {
		for _, ex := range es {
			got := m.Score(&withEval, ex)
			want := m.Score(bare, ex)
			if got.Cmp(want) != 0 {
				t.Fatalf("%s on %v: with Eval %v, without %v", m.Name(), ex.P, got, want)
			}
		}
	}
}
