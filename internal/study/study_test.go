package study

import (
	"context"
	"math"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/kbgen"
	"rex/internal/pattern"
)

func studySetup(t *testing.T) (*Panel, []*pattern.Explanation) {
	t.Helper()
	g := kbgen.Sample()
	s := g.NodeByName("brad_pitt")
	e := g.NodeByName("angelina_jolie")
	es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, enumerate.Config{})
	return NewPanel(g, s, e, es, 10, 99), es
}

func TestPanelDeterministic(t *testing.T) {
	p1, es := studySetup(t)
	p2, _ := studySetup(t)
	for _, ex := range es {
		a := p1.Judge(ex)
		b := p2.Judge(ex)
		if len(a.Labels) != 10 || len(b.Labels) != 10 {
			t.Fatalf("rater counts %d/%d", len(a.Labels), len(b.Labels))
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] {
				t.Fatal("panel judgments not deterministic")
			}
		}
	}
}

func TestLabelsInRange(t *testing.T) {
	p, es := studySetup(t)
	for _, ex := range es {
		j := p.Judge(ex)
		for _, l := range j.Labels {
			if l < 0 || l > 2 {
				t.Fatalf("label %d out of range", l)
			}
		}
		avg := j.AvgLabel()
		if avg < 0 || avg > 2 {
			t.Fatalf("average label %v out of range", avg)
		}
	}
}

func TestRatersDisagreeSomewhere(t *testing.T) {
	p, es := studySetup(t)
	disagreements := 0
	for _, ex := range es {
		j := p.Judge(ex)
		for i := 1; i < len(j.Labels); i++ {
			if j.Labels[i] != j.Labels[0] {
				disagreements++
				break
			}
		}
	}
	if disagreements == 0 {
		t.Error("simulated raters never disagree; noise model broken")
	}
}

func TestDCGBounds(t *testing.T) {
	mk := func(labels ...int) []Judged {
		out := make([]Judged, len(labels))
		for i, l := range labels {
			out[i] = Judged{Labels: []int{l}}
		}
		return out
	}
	// All-perfect ranking normalises to exactly 100.
	perfect := DCG(mk(2, 2, 2, 2, 2, 2, 2, 2, 2, 2), 10)
	if math.Abs(perfect-100) > 1e-9 {
		t.Errorf("perfect DCG = %v, want 100", perfect)
	}
	if got := DCG(mk(0, 0, 0), 10); got != 0 {
		t.Errorf("all-zero DCG = %v", got)
	}
	// Order matters: relevant-first beats relevant-last.
	first := DCG(mk(2, 0, 0, 0, 0, 0, 0, 0, 0, 0), 10)
	last := DCG(mk(0, 0, 0, 0, 0, 0, 0, 0, 0, 2), 10)
	if !(first > last && last > 0) {
		t.Errorf("DCG ordering broken: first=%v last=%v", first, last)
	}
	// Shorter lists are fine.
	if got := DCG(mk(2), 10); got <= 0 || got >= 100 {
		t.Errorf("single-item DCG = %v", got)
	}
}

func TestAvgLabelEmpty(t *testing.T) {
	if (Judged{}).AvgLabel() != 0 {
		t.Error("empty judgment average must be 0")
	}
}

func TestPathShare(t *testing.T) {
	p, es := studySetup(t)
	judged := make([]Judged, 0, len(es))
	for _, ex := range es {
		judged = append(judged, p.Judge(ex))
	}
	share5, n5 := PathShare(judged, 5)
	share10, n10 := PathShare(judged, 10)
	if n5 > 5 || n10 > 10 {
		t.Fatalf("considered %d/%d beyond k", n5, n10)
	}
	if share5 < 0 || share5 > 1 || share10 < 0 || share10 > 1 {
		t.Fatalf("shares out of range: %v %v", share5, share10)
	}
	if n10 < n5 {
		t.Fatalf("top-10 considered %d < top-5 %d", n10, n5)
	}
	// Empty input.
	if s, n := PathShare(nil, 5); s != 0 || n != 0 {
		t.Errorf("empty PathShare = %v/%d", s, n)
	}
}

func TestPathShareCountsOnlyQualifying(t *testing.T) {
	// One highly judged path, one unqualifying non-path.
	g := kbgen.Sample()
	s := g.NodeByName("brad_pitt")
	e := g.NodeByName("angelina_jolie")
	es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, enumerate.Config{})
	var path, nonpath *pattern.Explanation
	for _, ex := range es {
		if ex.P.IsPath() && path == nil {
			path = ex
		}
		if !ex.P.IsPath() && nonpath == nil {
			nonpath = ex
		}
	}
	if path == nil || nonpath == nil {
		t.Skip("sample lacks path/non-path mix for this pair")
	}
	judged := []Judged{
		{Ex: path, Labels: []int{2, 2}},
		{Ex: nonpath, Labels: []int{0, 0}}, // below the avg ≥ 1 filter
	}
	share, n := PathShare(judged, 10)
	if n != 1 || share != 1 {
		t.Errorf("share=%v considered=%d, want 1/1", share, n)
	}
}

func TestOracleAgreesWithEnumeration(t *testing.T) {
	g := kbgen.Sample()
	s := g.NodeByName("kate_winslet")
	e := g.NodeByName("leonardo_dicaprio")
	es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, enumerate.Config{})
	for _, ex := range es {
		if got := Oracle(g, ex, s, e); got != ex.Count() {
			t.Errorf("oracle %d != enumerated %d for %v", got, ex.Count(), ex.P)
		}
	}
}
