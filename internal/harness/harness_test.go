package harness

import (
	"bytes"
	"strings"
	"testing"

	"rex/internal/kb"
)

// tinyEnv builds a fast experiment environment for smoke tests.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(EnvOptions{Scale: 0.3, Seed: 7, PerBucket: 1, GlobalSamples: 5})
}

func TestNewEnvWorkload(t *testing.T) {
	env := tinyEnv(t)
	if env.G.NumNodes() == 0 || env.G.NumEdges() == 0 {
		t.Fatal("empty synthetic graph")
	}
	if len(env.Pairs) == 0 {
		t.Fatal("no pairs sampled")
	}
	for _, b := range Buckets() {
		for _, p := range env.PairsIn(b) {
			if p.Bucket != b {
				t.Errorf("PairsIn(%v) returned a %v pair", b, p.Bucket)
			}
		}
	}
}

func TestEnvDefaults(t *testing.T) {
	opt := EnvOptions{}.normalized()
	if opt.Scale != 1 || opt.PerBucket != 10 || opt.MaxPatternSize != 5 || opt.GlobalSamples != 100 {
		t.Errorf("defaults wrong: %+v", opt)
	}
}

func TestTablePrint(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"x", "1"}, {"yyyy", "2"}},
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "long-header", "yyyy"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestSecondsFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{123, "123s"},
		{2.5, "2.50s"},
		{0.0123, "12.3ms"},
		{0.0000015, "2µs"},
	}
	for _, tc := range cases {
		if got := Seconds(tc.in); got != tc.want {
			t.Errorf("Seconds(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTimePositive(t *testing.T) {
	s := Time(func() {
		x := 0
		for i := 0; i < 1000; i++ {
			x += i
		}
		_ = x
	})
	if s <= 0 {
		t.Fatalf("Time returned %v", s)
	}
}

func TestFig7Smoke(t *testing.T) {
	env := tinyEnv(t)
	tab := env.Fig7(true) // skip NaiveEnum for speed
	if len(tab.Rows) != len(Fig7Combos())-1 {
		t.Fatalf("fig7 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 4 {
			t.Fatalf("fig7 row arity %d", len(row))
		}
	}
}

func TestFig7IncludesNaive(t *testing.T) {
	env := NewEnv(EnvOptions{Scale: 0.15, Seed: 7, PerBucket: 1, GlobalSamples: 3})
	tab := env.Fig7(false)
	found := false
	for _, row := range tab.Rows {
		if row[0] == "NaiveEnum" {
			found = true
		}
	}
	if !found {
		t.Error("full fig7 must include the NaiveEnum baseline")
	}
}

func TestFig8Smoke(t *testing.T) {
	env := tinyEnv(t)
	tab := env.Fig8()
	if len(tab.Rows) != len(env.Pairs) {
		t.Fatalf("fig8 rows %d != pairs %d", len(tab.Rows), len(env.Pairs))
	}
}

func TestFig9Smoke(t *testing.T) {
	env := tinyEnv(t)
	tab := env.Fig9()
	if len(tab.Rows) != 3 {
		t.Fatalf("fig9 rows = %d", len(tab.Rows))
	}
}

func TestFig10Smoke(t *testing.T) {
	env := tinyEnv(t)
	tab := env.Fig10([]int{1, 10})
	if len(tab.Rows) != 6 { // 3 buckets × 2 k values
		t.Fatalf("fig10 rows = %d", len(tab.Rows))
	}
}

func TestFig11Smoke(t *testing.T) {
	env := tinyEnv(t)
	tab := env.Fig11()
	if len(tab.Rows) != 3 {
		t.Fatalf("fig11 rows = %d", len(tab.Rows))
	}
}

func TestTable1Smoke(t *testing.T) {
	tab := Table1(StudyOptions{Scale: 0.3, Seed: 7, NumRaters: 3, GlobalSamples: 6, NumPairs: 2})
	if len(tab.Rows) != len(Table1Measures()) {
		t.Fatalf("table1 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 2+2 { // measure, P1, P2, avg
			t.Fatalf("table1 row arity %d: %v", len(row), row)
		}
	}
}

func TestPathShareSmoke(t *testing.T) {
	tab := PathShare(StudyOptions{Scale: 0.3, Seed: 7, NumRaters: 3, GlobalSamples: 6, NumPairs: 2})
	if len(tab.Rows) != 3 { // 2 pairs + overall
		t.Fatalf("pathshare rows = %d", len(tab.Rows))
	}
}

func TestAblationSmoke(t *testing.T) {
	env := tinyEnv(t)
	tab := env.Ablation()
	if len(tab.Rows) != 4 { // 2 dedup strategies + 2 distribution engines
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 2+len(Buckets()) { // study, variant, one cell per bucket
			t.Fatalf("ablation row arity %d: %v", len(row), row)
		}
	}
}

func TestLearnedSmoke(t *testing.T) {
	tab := Learned(StudyOptions{Scale: 0.3, Seed: 7, NumRaters: 3, GlobalSamples: 6, NumPairs: 2})
	if len(tab.Rows) != 4 { // 3 hand-tuned baselines + learned (LOO)
		t.Fatalf("learned rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 2+2 { // measure, P1, P2, avg
			t.Fatalf("learned row arity %d: %v", len(row), row)
		}
	}
	if last := tab.Rows[len(tab.Rows)-1][0]; last != "learned (LOO)" {
		t.Errorf("last row = %q, want the learned model", last)
	}
}

func TestStudyPairsNamed(t *testing.T) {
	if len(StudyPairs()) != 5 {
		t.Fatal("the paper uses five study pairs")
	}
}

func TestBucketsOrder(t *testing.T) {
	bs := Buckets()
	if len(bs) != 3 || bs[0] != kb.ConnLow || bs[2] != kb.ConnHigh {
		t.Fatalf("bucket order: %v", bs)
	}
}
