package learn

import (
	"context"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/kbgen"
	"rex/internal/measure"
	"rex/internal/pattern"
	"rex/internal/study"
)

func learnSetup(t *testing.T, start, end string) (*measure.Context, []*pattern.Explanation) {
	t.Helper()
	g := kbgen.Sample()
	s := g.NodeByName(start)
	e := g.NodeByName(end)
	es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, enumerate.Config{})
	return &measure.Context{G: g, Start: s, End: e}, es
}

func TestVectorShapeAndRange(t *testing.T) {
	ctx, es := learnSetup(t, "brad_pitt", "angelina_jolie")
	if len(FeatureNames()) != NumFeatures() {
		t.Fatal("feature name/count mismatch")
	}
	for _, ex := range es {
		f := Vector(ctx, ex)
		if len(f) != NumFeatures() {
			t.Fatalf("vector length %d", len(f))
		}
		for i, v := range f {
			if v < 0 || v > 1.0000001 {
				t.Errorf("feature %s = %v out of [0,1]", FeatureNames()[i], v)
			}
		}
		// Pathness agrees with the pattern.
		if (f[5] == 1) != ex.P.IsPath() {
			t.Errorf("pathness feature wrong for %v", ex.P)
		}
	}
}

func TestModelScoreLinear(t *testing.T) {
	m := &Model{Weights: []float64{1, 0, 0, 0, 0, 0}}
	if got := m.Score([]float64{0.5, 9, 9, 9, 9, 9}); got != 0.5 {
		t.Fatalf("score = %v", got)
	}
	if s := m.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestMeasureAdapterCaches(t *testing.T) {
	ctx, es := learnSetup(t, "brad_pitt", "angelina_jolie")
	lm := NewMeasure(NewModel())
	if lm.Name() != "learned" || lm.AntiMonotonic() {
		t.Error("adapter metadata")
	}
	for _, ex := range es {
		a := lm.Score(ctx, ex)
		b := lm.Score(ctx, ex)
		if a[0] != b[0] {
			t.Fatal("cached score differs")
		}
	}
	if len(lm.cache) != len(es) {
		t.Errorf("cache has %d entries for %d explanations", len(lm.cache), len(es))
	}
}

// TestTrainRecoversDominantFeature: when relevance is exactly one
// feature, training must put dominant weight on it and rank near-
// perfectly.
func TestTrainRecoversDominantFeature(t *testing.T) {
	ctx, es := learnSetup(t, "brad_pitt", "angelina_jolie")
	// Ground truth: simplicity is everything.
	rel := make(map[string]float64, len(es))
	for _, ex := range es {
		rel[ex.P.CanonicalKey()] = 2.0 / float64(ex.P.NumVars()-1)
	}
	example := NewExample(ctx, es, rel)
	m := Train([]Example{example}, 4)
	base := Objective(NewModel(), []Example{example})
	trained := Objective(m, []Example{example})
	if trained < base {
		t.Fatalf("training regressed: %v -> %v", base, trained)
	}
	if m.Weights[0] <= 0 {
		t.Errorf("simplicity weight not positive: %v", m)
	}
}

// TestTrainImprovesOverUniform trains on simulated judgments of two
// pairs and verifies the objective does not regress.
func TestTrainImprovesOverUniform(t *testing.T) {
	g := kbgen.Sample()
	var examples []Example
	for _, names := range [][2]string{
		{"brad_pitt", "angelina_jolie"},
		{"kate_winslet", "leonardo_dicaprio"},
	} {
		s := g.NodeByName(names[0])
		e := g.NodeByName(names[1])
		es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, enumerate.Config{})
		ctx := &measure.Context{G: g, Start: s, End: e}
		panel := study.NewPanel(g, s, e, es, 5, 17)
		rel := make(map[string]float64, len(es))
		for _, ex := range es {
			rel[ex.P.CanonicalKey()] = panel.Judge(ex).AvgLabel()
		}
		examples = append(examples, NewExample(ctx, es, rel))
	}
	uniform := Objective(NewModel(), examples)
	m := Train(examples, 4)
	trained := Objective(m, examples)
	if trained < uniform-1e-9 {
		t.Fatalf("training regressed: uniform %v, trained %v", uniform, trained)
	}
}

func TestTrainDeterministic(t *testing.T) {
	ctx, es := learnSetup(t, "kate_winslet", "leonardo_dicaprio")
	rel := make(map[string]float64, len(es))
	for i, ex := range es {
		rel[ex.P.CanonicalKey()] = float64(i % 3) // arbitrary but fixed
	}
	example := NewExample(ctx, es, rel)
	m1 := Train([]Example{example}, 3)
	m2 := Train([]Example{example}, 3)
	for i := range m1.Weights {
		if m1.Weights[i] != m2.Weights[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestObjectiveEmpty(t *testing.T) {
	if Objective(NewModel(), nil) != 0 {
		t.Error("empty objective must be 0")
	}
}
