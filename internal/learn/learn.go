// Package learn implements the measure combination the paper leaves as
// future work (Section 5.4.1): "we can definitely further improve the
// combinations using machine learning techniques". A linear model over
// normalised per-measure features is trained by coordinate ascent to
// maximise the DCG of its rankings against (simulated) rater judgments,
// then used as a drop-in interestingness measure.
//
// Everything is deterministic: the feature extraction, the search grid
// and the tie-breaking, so trained weights are reproducible.
package learn

import (
	"fmt"
	"sync"

	"rex/internal/measure"
	"rex/internal/pattern"
)

// FeatureNames lists the model features in vector order. Every feature
// is normalised into [0, 1]-ish range with "higher = more interesting
// under that feature's own philosophy", so weights are comparable.
func FeatureNames() []string {
	return []string{
		"simplicity",   // 1/(size-1): the size measure
		"conductance",  // random-walk current, clamped to [0,1]
		"strength",     // count/(count+2): the count measure
		"monostrength", // monocount/(monocount+2)
		"local-rarity", // 1/(1+local position)
		"pathness",     // 1 for simple paths, 0 otherwise
	}
}

// NumFeatures is the dimensionality of the feature vector.
func NumFeatures() int { return len(FeatureNames()) }

// Vector extracts the feature vector of an explanation. The local-rarity
// feature evaluates the pattern's local distribution, which dominates
// the extraction cost — cache vectors when ranking repeatedly.
func Vector(ctx *measure.Context, ex *pattern.Explanation) []float64 {
	f := make([]float64, NumFeatures())
	f[0] = 1.0 / float64(ex.P.NumVars()-1)
	c := measure.RandomWalk{}.Score(ctx, ex)[0]
	if c > 1 {
		c = 1
	}
	f[1] = c
	cnt := float64(ex.Count())
	f[2] = cnt / (cnt + 2)
	mono := float64(ex.Monocount())
	f[3] = mono / (mono + 2)
	pos := -measure.LocalPosition{}.Score(ctx, ex)[0]
	f[4] = 1.0 / (1.0 + pos)
	if ex.P.IsPath() {
		f[5] = 1
	}
	return f
}

// Model is a linear scorer over the feature vector.
type Model struct {
	Weights []float64
}

// NewModel returns a model with neutral (uniform) weights.
func NewModel() *Model {
	w := make([]float64, NumFeatures())
	for i := range w {
		w[i] = 1.0 / float64(len(w))
	}
	return &Model{Weights: w}
}

// Score computes the linear combination for a feature vector.
func (m *Model) Score(f []float64) float64 {
	s := 0.0
	for i, w := range m.Weights {
		if i < len(f) {
			s += w * f[i]
		}
	}
	return s
}

// String renders the learned weights with their feature names.
func (m *Model) String() string {
	out := "learned{"
	for i, n := range FeatureNames() {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%.2f", n, m.Weights[i])
	}
	return out + "}"
}

// Measure adapts the model to the measure.Measure interface. Feature
// vectors are memoised per pattern because ranking evaluates the measure
// once per explanation but training evaluates it once per candidate per
// weight probe. A ranking scores from two lanes at once, so the memo is
// under mu.
type Measure struct {
	Model *Model
	mu    sync.Mutex
	cache map[string][]float64
}

// NewMeasure wraps a model for ranking.
func NewMeasure(m *Model) *Measure {
	return &Measure{Model: m, cache: make(map[string][]float64)}
}

// Name implements measure.Measure.
func (lm *Measure) Name() string { return "learned" }

// AntiMonotonic implements measure.Measure: a mixed linear combination
// has no monotonicity guarantee.
func (lm *Measure) AntiMonotonic() bool { return false }

// Score implements measure.Measure.
func (lm *Measure) Score(ctx *measure.Context, ex *pattern.Explanation) measure.Score {
	key := ex.P.CanonicalKey()
	lm.mu.Lock()
	f, ok := lm.cache[key]
	lm.mu.Unlock()
	if !ok {
		f = Vector(ctx, ex)
		lm.mu.Lock()
		lm.cache[key] = f
		lm.mu.Unlock()
	}
	return measure.Score{lm.Model.Score(f)}
}
