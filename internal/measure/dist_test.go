package measure

import (
	"context"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/pattern"
)

// TestLocalPositionExample7 recreates the shape of the paper's Example 7:
// for Brad Pitt, the spousal explanation with count 1 has a better (lower)
// local position than the co-starring explanation with count 1, because
// other actors co-star with him more often while nobody out-marries a
// spouse edge.
func TestLocalPositionExample7(t *testing.T) {
	ctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	g := ctx.G
	star := g.LabelByName(kbgen.RelStarring)
	spouse := g.LabelByName(kbgen.RelSpouse)
	costarKey := pattern.MustNew(g, 3, []pattern.Edge{
		{U: 2, V: pattern.Start, Label: star}, {U: 2, V: pattern.End, Label: star},
	}).CanonicalKey()
	spouseKey := pattern.MustNew(g, 2, []pattern.Edge{
		{U: pattern.Start, V: pattern.End, Label: spouse},
	}).CanonicalKey()

	var costarPos, spousePos float64 = -1, -1
	local := LocalPosition{}
	for _, ex := range es {
		switch ex.P.CanonicalKey() {
		case costarKey:
			costarPos = -local.Score(ctx, ex)[0]
		case spouseKey:
			spousePos = -local.Score(ctx, ex)[0]
		}
	}
	if costarPos < 0 || spousePos < 0 {
		t.Fatal("costar or spouse explanation not enumerated")
	}
	if spousePos != 0 {
		t.Errorf("spouse position = %v, want 0 (no one beats a spouse edge)", spousePos)
	}
	// Brad co-stars once with Angelina; julia (3), clooney (2), damon
	// (2), and several Troy/Vampire/Oceans co-stars beat or match — the
	// ones strictly above count 1 produce a positive position.
	if costarPos <= 0 {
		t.Errorf("costar position = %v, want > 0", costarPos)
	}
	if !(spousePos < costarPos) {
		t.Errorf("spouse (%v) must rank rarer than costar (%v)", spousePos, costarPos)
	}
}

// TestLocalPositionLimitSemantics verifies the LIMIT pruning contract:
// full computation when the true score ties or beats the threshold,
// ok=false only when strictly below.
func TestLocalPositionLimitSemantics(t *testing.T) {
	ctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	local := LocalPosition{}
	for _, ex := range es {
		full := local.Score(ctx, ex)
		// Threshold exactly at the score: must not be pruned.
		s, ok := local.ScoreWithLimit(ctx, ex, full)
		if !ok || s.Cmp(full) != 0 {
			t.Fatalf("tie with threshold pruned: %v ok=%v want %v", s, ok, full)
		}
		// Threshold strictly above: must be pruned.
		above := Score{full[0] + 1}
		if _, ok := local.ScoreWithLimit(ctx, ex, above); ok {
			t.Fatalf("score %v not pruned under threshold %v", full, above)
		}
		// Threshold strictly below: full score.
		belowT := Score{full[0] - 1}
		s, ok = local.ScoreWithLimit(ctx, ex, belowT)
		if !ok || s.Cmp(full) != 0 {
			t.Fatalf("low threshold distorted score: %v ok=%v", s, ok)
		}
	}
}

// TestGlobalPositionSumsLocals verifies that the global estimate equals
// the sum of local positions over the sampled starts.
func TestGlobalPositionSumsLocals(t *testing.T) {
	ctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	ctx.SampleStarts = SampleStarts(ctx.G, 12, 3)
	global := GlobalPosition{}
	for _, ex := range es[:min(len(es), 6)] {
		want := 0.0
		a := ex.Count()
		for _, s := range ctx.SampleStarts {
			pos, ok := streamLocalPosition(context.Background(), ctx.G, ex.P, s, a, -1)
			if !ok {
				t.Fatal("unlimited streamLocalPosition aborted")
			}
			want += float64(pos)
		}
		got := -global.Score(ctx, ex)[0]
		if got != want {
			t.Errorf("global position = %v, want %v", got, want)
		}
	}
}

// TestGlobalPositionFallsBackToQueryStart checks the no-samples fallback.
func TestGlobalPositionFallback(t *testing.T) {
	ctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	local := LocalPosition{}
	global := GlobalPosition{}
	for _, ex := range es[:min(len(es), 4)] {
		if got, want := global.Score(ctx, ex)[0], local.Score(ctx, ex)[0]; got != want {
			t.Errorf("no-sample global %v != local %v", got, want)
		}
	}
}

// TestGlobalPositionLimit checks pruning semantics for the global
// measure.
func TestGlobalPositionLimit(t *testing.T) {
	ctx, es := sampleCtx(t, "brad_pitt", "angelina_jolie")
	ctx.SampleStarts = SampleStarts(ctx.G, 10, 3)
	global := GlobalPosition{}
	for _, ex := range es[:min(len(es), 6)] {
		full := global.Score(ctx, ex)
		if s, ok := global.ScoreWithLimit(ctx, ex, full); !ok || s.Cmp(full) != 0 {
			t.Fatalf("tie pruned: %v ok=%v", s, ok)
		}
		if _, ok := global.ScoreWithLimit(ctx, ex, Score{full[0] + 1}); ok {
			t.Fatalf("strictly-worse score not pruned")
		}
	}
}

// perSampleGlobalPosition is GlobalPosition.ScoreWithLimit as one kernel
// call per sampled start, repeated starts included.
func perSampleGlobalPosition(g *kb.Graph, p *pattern.Pattern, starts []kb.NodeID, a, limit int) (Score, bool) {
	total := 0
	for _, s := range starts {
		rem := -1
		if limit >= 0 {
			if rem = limit - total; rem < 0 {
				return nil, false
			}
		}
		pos, ok := streamLocalPosition(context.Background(), g, p, s, a, rem)
		if !ok {
			return nil, false
		}
		total += pos
	}
	return Score{-float64(total)}, true
}

// perSampleGlobalDeviation is GlobalDeviation.Score as one kernel call
// per sampled start, repeated starts included.
func perSampleGlobalDeviation(g *kb.Graph, p *pattern.Pattern, starts []kb.NodeID, a int) Score {
	total := 0.0
	for _, s := range starts {
		counts, err := localTable(context.Background(), g, p, s)
		if err != nil {
			panic(err)
		}
		total += deviation(counts, float64(a))
	}
	return Score{total / float64(len(starts))}
}

// TestGlobalMeasuresEvaluateRepeatedStartsOnce pins the per-call reuse
// of a repeated sampled start: on kbgen small, for every type whose
// 100-start sample repeats a start, both global measures score each
// explanation bit for bit as one kernel call per sample does, and
// GlobalPosition prunes at exactly the same limits.
func TestGlobalMeasuresEvaluateRepeatedStartsOnce(t *testing.T) {
	opt, err := kbgen.PresetOptions("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(opt)
	perType := 10
	if testing.Short() {
		perType = 4
	}
	repeating := 0
	for _, typ := range []string{kbgen.TypeActor, kbgen.TypeDirector, kbgen.TypeFilm, kbgen.TypeGenre} {
		starts := SampleStartsOfType(g, typ, 100, 0)
		distinct := map[kb.NodeID]bool{}
		for _, s := range starts {
			distinct[s] = true
		}
		if len(distinct) == len(starts) {
			continue
		}
		repeating++
		// A pair two hops apart from the first sampled start.
		s, e := starts[0], kb.InvalidNode
		for _, he := range g.Neighbors(s) {
			for _, he2 := range g.Neighbors(he.To) {
				if he2.To != s && e == kb.InvalidNode {
					e = he2.To
				}
			}
		}
		es := enumerate.Explanations(g, s, e, enumerate.Config{})
		if len(es) == 0 {
			t.Fatalf("%s: no explanations for %s-%s", typ, g.NodeName(s), g.NodeName(e))
		}
		t.Logf("%s: %d of %d sampled starts repeat, %d explanations", typ, len(starts)-len(distinct), len(starts), len(es))
		mctx := &Context{G: g, Start: s, End: e, SampleStarts: starts}
		for _, ex := range es[:min(len(es), perType)] {
			a := ex.Count()
			if got, want := (GlobalDeviation{}).Score(mctx, ex), perSampleGlobalDeviation(g, ex.P, starts, a); got[0] != want[0] {
				t.Fatalf("%s %v: global-dev %v, per sample %v", typ, ex.P, got[0], want[0])
			}
			want, _ := perSampleGlobalPosition(g, ex.P, starts, a, -1)
			if got := (GlobalPosition{}).Score(mctx, ex); got[0] != want[0] {
				t.Fatalf("%s %v: global-dist %v, per sample %v", typ, ex.P, got[0], want[0])
			}
			sum := int(-want[0])
			for _, limit := range []int{0, 1, 2, sum / 4, sum / 2, 3 * sum / 4, sum - 1, sum, sum + 1} {
				if limit < 0 {
					continue
				}
				want, wantOK := perSampleGlobalPosition(g, ex.P, starts, a, limit)
				got, ok := (GlobalPosition{}).ScoreWithLimit(mctx, ex, Score{-float64(limit)})
				if ok != wantOK || (ok && got[0] != want[0]) {
					t.Fatalf("%s %v limit %d: (%v,%v), per sample (%v,%v)", typ, ex.P, limit, got, ok, want, wantOK)
				}
			}
		}
	}
	if repeating == 0 {
		t.Fatal("no type's sample repeats a start: the reuse path is untested")
	}
}
