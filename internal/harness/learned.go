package harness

import (
	"context"
	"fmt"

	"rex/internal/learn"
	"rex/internal/measure"
	"rex/internal/rank"
	"rex/internal/study"
)

// Learned runs the future-work extension experiment: train the linear
// measure combination on simulated judgments with leave-one-out
// cross-validation over the study pairs, and compare held-out DCG
// against the paper's best hand combinations. The paper conjectures the
// learned combination "definitely" improves on the hand-tuned ones; this
// experiment quantifies it under the simulated raters.
func Learned(opt StudyOptions) Table {
	data := buildStudy(opt)
	t := Table{
		Title:   "Extension: learned measure combination (held-out DCG, leave-one-out)",
		Headers: []string{"measure"},
	}
	for i := range data {
		t.Headers = append(t.Headers, fmt.Sprintf("P%d", i+1))
	}
	t.Headers = append(t.Headers, "avg")

	// Pre-extract one training example per pair.
	examples := make([]learn.Example, len(data))
	for i, sd := range data {
		rel := make(map[string]float64, len(sd.all))
		for key, j := range sd.labels {
			rel[key] = j.AvgLabel()
		}
		examples[i] = learn.NewExample(sd.ctx, sd.all, rel)
	}

	// Baselines: the paper's two winning hand combinations plus pure
	// local-dist, evaluated on every pair (they involve no training, so
	// "held-out" equals their Table 1 scores).
	baselines := []measure.Measure{
		measure.LocalPosition{},
		measure.Combined{Primary: measure.Size{}, Secondary: measure.Monocount{}},
		measure.Combined{Primary: measure.Size{}, Secondary: measure.LocalPosition{}},
	}
	evalMeasure := func(m measure.Measure, sd *studyData) float64 {
		ranked, _, _ := rank.GeneralBudgeted(context.Background(), sd.ctx, sd.all, m, 10)
		judged := make([]study.Judged, len(ranked))
		for i, r := range ranked {
			judged[i] = sd.labels[r.Ex.P.CanonicalKey()]
		}
		return study.DCG(judged, 10)
	}
	for _, m := range baselines {
		row := []string{m.Name()}
		total := 0.0
		for _, sd := range data {
			s := evalMeasure(m, sd)
			total += s
			row = append(row, fmt.Sprintf("%.0f", s))
		}
		row = append(row, fmt.Sprintf("%.0f", total/float64(len(data))))
		t.Rows = append(t.Rows, row)
	}

	// Leave-one-out learned model.
	row := []string{"learned (LOO)"}
	total := 0.0
	for i, sd := range data {
		var train []learn.Example
		for j := range examples {
			if j != i {
				train = append(train, examples[j])
			}
		}
		model := learn.Train(train, 4)
		s := evalMeasure(learn.NewMeasure(model), sd)
		total += s
		row = append(row, fmt.Sprintf("%.0f", s))
	}
	row = append(row, fmt.Sprintf("%.0f", total/float64(len(data))))
	t.Rows = append(t.Rows, row)
	return t
}
