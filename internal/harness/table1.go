package harness

import (
	"fmt"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/measure"
	"rex/internal/pattern"
	"rex/internal/rank"
	"rex/internal/study"
)

// StudyPairs returns the paper's five user-study entity pairs
// (Section 5.4.1), all present in the curated sample knowledge base.
// The timing-independent effectiveness experiments (Table 1, path share)
// run on the synthetic knowledge base instead, where aggregate
// distributions have enough spread to separate the measures; these named
// pairs remain available for demos and tests.
func StudyPairs() [][2]string {
	return [][2]string{
		{"brad_pitt", "angelina_jolie"},       // P1
		{"kate_winslet", "leonardo_dicaprio"}, // P2
		{"tom_cruise", "will_smith"},          // P3
		{"james_cameron", "kate_winslet"},     // P4
		{"mel_gibson", "helen_hunt"},          // P5
	}
}

// Table1Measures returns the eight measures of Table 1 in row order.
func Table1Measures() []measure.Measure {
	return []measure.Measure{
		measure.Size{},
		measure.RandomWalk{},
		measure.Count{},
		measure.Monocount{},
		measure.LocalPosition{},
		measure.GlobalPosition{},
		measure.Combined{Primary: measure.Size{}, Secondary: measure.Monocount{}},
		measure.Combined{Primary: measure.Size{}, Secondary: measure.LocalPosition{}},
	}
}

// StudyOptions configures the simulated user-study experiments.
type StudyOptions struct {
	// Scale and Seed build the synthetic knowledge base the judged
	// pairs are drawn from.
	Scale float64
	Seed  int64
	// NumRaters is the size of the simulated panel (paper: 10).
	NumRaters int
	// GlobalSamples estimates the global distribution (paper: 100).
	GlobalSamples int
	// NumPairs is how many entity pairs are judged (paper: 5).
	NumPairs int
}

func (o StudyOptions) normalized() StudyOptions {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.NumRaters <= 0 {
		o.NumRaters = 10
	}
	if o.GlobalSamples <= 0 {
		o.GlobalSamples = 100
	}
	if o.NumPairs <= 0 {
		o.NumPairs = 5
	}
	return o
}

// studyData holds one pair's enumeration, rater panel and judgments.
type studyData struct {
	g     *kb.Graph
	start kb.NodeID
	end   kb.NodeID
	all   []*pattern.Explanation
	ctx   *measure.Context
	panel *study.Panel

	labels map[string]study.Judged // canonical key → judgment
}

// buildStudy samples study pairs from a synthetic knowledge base,
// enumerates their explanations, and judges everything with the
// simulated rater panel. Pairs come from the medium and high
// connectedness buckets — like the paper's celebrity pairs, they must
// have enough explanations for a top-10 comparison to be meaningful.
func buildStudy(opt StudyOptions) []*studyData {
	opt = opt.normalized()
	g := kbgen.Generate(kbgen.Options{Scale: opt.Scale, Seed: opt.Seed})
	sampled := kbgen.SamplePairs(g, kbgen.PairOptions{
		PerBucket: opt.NumPairs, Seed: opt.Seed + 1,
	})
	var pairs []kbgen.Pair
	for _, b := range []kb.ConnBucket{kb.ConnHigh, kb.ConnMedium, kb.ConnLow} {
		for _, p := range sampled {
			if p.Bucket == b && len(pairs) < opt.NumPairs {
				pairs = append(pairs, p)
			}
		}
	}
	cfg := enumerate.Config{MaxPatternSize: enumerate.DefaultMaxPatternSize}
	var out []*studyData
	for _, p := range pairs {
		all := enumerate.Explanations(g, p.Start, p.End, cfg)
		// Start samples for the global distribution match the query
		// entity's type (see measure.SampleStartsOfType). The rater
		// model's global-rarity component uses its own smaller,
		// differently-seeded sample so that no ranked measure computes
		// the ground truth exactly.
		typ := g.Node(p.Start).Type
		raterStarts := measure.SampleStartsOfType(g, typ, opt.GlobalSamples/2, opt.Seed+7)
		panel := study.NewPanel(g, p.Start, p.End, all, opt.NumRaters, opt.Seed, raterStarts...)
		sd := &studyData{
			g: g, start: p.Start, end: p.End, all: all, panel: panel,
			ctx: &measure.Context{
				G: g, Start: p.Start, End: p.End,
				SampleStarts: measure.SampleStartsOfType(g, typ, opt.GlobalSamples, opt.Seed),
			},
			labels: make(map[string]study.Judged, len(all)),
		}
		for _, ex := range all {
			sd.labels[ex.P.CanonicalKey()] = sd.panel.Judge(ex)
		}
		out = append(out, sd)
	}
	return out
}

// Table1 reproduces the measure-effectiveness comparison: each measure
// ranks the top 10 explanations for each study pair; simulated raters
// judge them; the DCG-style score of Section 5.4.1 summarises each
// ranking.
func Table1(opt StudyOptions) Table {
	data := buildStudy(opt)
	t := Table{
		Title:   "Table 1: interestingness measure effectiveness (DCG-style score, higher is better)",
		Headers: []string{"measure"},
	}
	for i := range data {
		t.Headers = append(t.Headers, fmt.Sprintf("P%d", i+1))
	}
	t.Headers = append(t.Headers, "avg")
	for _, m := range Table1Measures() {
		row := []string{m.Name()}
		total := 0.0
		for _, sd := range data {
			ranked := rank.General(sd.ctx, sd.all, m, 10)
			judged := make([]study.Judged, len(ranked))
			for i, r := range ranked {
				judged[i] = sd.labels[r.Ex.P.CanonicalKey()]
			}
			score := study.DCG(judged, 10)
			total += score
			row = append(row, fmt.Sprintf("%.0f", score))
		}
		row = append(row, fmt.Sprintf("%.0f", total/float64(len(data))))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// PathShare reproduces Section 5.4.2: among the user-judged most
// interesting explanations (average label ≥ 1), what fraction are simple
// paths? The paper reports 36% paths in the top 5 and 38% in the top 10,
// i.e. non-path explanations dominate.
func PathShare(opt StudyOptions) Table {
	data := buildStudy(opt)
	t := Table{
		Title:   "Section 5.4.2: share of path explanations among top judged explanations",
		Headers: []string{"pair", "top-5 paths", "top-10 paths", "qualifying"},
	}
	var paths5, tot5, paths10, tot10 float64
	for i, sd := range data {
		judged := make([]study.Judged, 0, len(sd.all))
		for _, ex := range sd.all {
			judged = append(judged, sd.labels[ex.P.CanonicalKey()])
		}
		s5, n5 := study.PathShare(judged, 5)
		s10, n10 := study.PathShare(judged, 10)
		paths5 += s5 * float64(n5)
		tot5 += float64(n5)
		paths10 += s10 * float64(n10)
		tot10 += float64(n10)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("P%d (%s, %s)", i+1, sd.g.NodeName(sd.start), sd.g.NodeName(sd.end)),
			fmt.Sprintf("%.0f%%", 100*s5),
			fmt.Sprintf("%.0f%%", 100*s10),
			fmt.Sprint(n10),
		})
	}
	overall5, overall10 := "n/a", "n/a"
	if tot5 > 0 {
		overall5 = fmt.Sprintf("%.0f%%", 100*paths5/tot5)
	}
	if tot10 > 0 {
		overall10 = fmt.Sprintf("%.0f%%", 100*paths10/tot10)
	}
	t.Rows = append(t.Rows, []string{"overall", overall5, overall10, fmt.Sprintf("%.0f", tot10)})
	return t
}
