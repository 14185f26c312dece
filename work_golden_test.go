package rex

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rex/internal/kb"
	"rex/internal/kbgen"
)

var workMillion = flag.Bool("work-million", false, "also check the million preset's work goldens (≈ 2 s to generate, a few seconds of queries)")

// workPairs draws the benchmark's pair set from a kbgen preset at seed
// 42: 11 pairs per connectedness bucket at pair seed 43, interleaved
// low, medium, high.
func workPairs(t *testing.T, preset string) (*kb.Graph, []Pair) {
	t.Helper()
	opt, err := kbgen.PresetOptions(preset, 42)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(opt)
	g.Freeze()
	const perBucket = 11
	by := map[kb.ConnBucket][]kbgen.Pair{}
	for _, p := range kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: perBucket, Seed: 43}) {
		by[p.Bucket] = append(by[p.Bucket], p)
	}
	var pairs []Pair
	for i := 0; i < perBucket; i++ {
		for _, b := range []kb.ConnBucket{kb.ConnLow, kb.ConnMedium, kb.ConnHigh} {
			if i < len(by[b]) {
				pairs = append(pairs, Pair{Start: g.NodeName(by[b][i].Start), End: g.NodeName(by[b][i].End)})
			}
		}
	}
	return g, pairs
}

// workDigest is one pair's answer and the work the engine did for it:
// every ranked explanation as its pattern, instance count and score
// vector, and every count of the query trace.
type workDigest struct {
	Pair    string           `json:"pair"`
	Answers []string         `json:"answers"`
	Counts  map[string]int64 `json:"counts"`
}

func digestWork(p Pair, res *Result) workDigest {
	d := workDigest{Pair: p.Start + "->" + p.End, Counts: map[string]int64{}}
	for _, e := range res.Explanations {
		d.Answers = append(d.Answers, fmt.Sprintf("%s count=%d score=%v", e.Pattern, e.NumInstances, e.Score))
	}
	tr := res.Trace
	d.Counts["expansions"] = tr.Expansions
	d.Counts["merges"] = tr.Merges
	d.Counts["joins"] = tr.Joins
	d.Counts["joins_skipped"] = tr.JoinsSkipped
	d.Counts["bindings"] = tr.Bindings
	d.Counts["walk_steps"] = tr.WalkSteps
	for _, s := range tr.Stages {
		d.Counts[s.Stage+".calls"] = s.Calls
		d.Counts[s.Stage+".items"] = s.Items
	}
	return d
}

// TestWorkGoldens pins, per pair of the benchmark's pair set, what every
// uncached query answers and how much work it does: the answers must
// never change, and a change to any work count (expansions, merges,
// joins, joins proven empty, bindings, walk steps, per-stage calls and
// items) is deliberate, regenerated with -update and declared. medium
// always runs; million runs with -work-million. Each pair's uncached
// time is logged, never gated.
func TestWorkGoldens(t *testing.T) {
	presets := []string{"medium"}
	if *workMillion {
		presets = append(presets, "million")
	}
	path := filepath.Join("testdata", "work_goldens.json")
	want := map[string][]workDigest{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	} else if !*updateGoldens {
		t.Fatalf("read work goldens (regenerate with -update): %v", err)
	}
	for _, preset := range presets {
		t.Run(preset, func(t *testing.T) {
			g, pairs := workPairs(t, preset)
			k := &KB{g: g}
			var got []workDigest
			var total time.Duration
			for _, p := range pairs {
				ex, err := NewExplainer(k, Options{CacheSize: 0})
				if err != nil {
					t.Fatal(err)
				}
				t0 := time.Now()
				res, err := ex.ExplainContext(WithTrace(context.Background()), p.Start, p.End)
				took := time.Since(t0)
				if err != nil {
					t.Fatalf("%s->%s: %v", p.Start, p.End, err)
				}
				total += took
				t.Logf("%s->%s: %.2f ms", p.Start, p.End, float64(took)/1e6)
				got = append(got, digestWork(p, res))
			}
			t.Logf("%d pairs: %.1f ms", len(pairs), float64(total)/1e6)
			if *updateGoldens {
				want[preset] = got
				return
			}
			compareWork(t, want[preset], got)
		})
	}
	if *updateGoldens {
		data, err := json.MarshalIndent(want, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}

func compareWork(t *testing.T, want, got []workDigest) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("no work goldens for this preset (regenerate with -update)")
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, goldens have %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Pair != w.Pair {
			t.Fatalf("pair %d is %s, goldens have %s", i, g.Pair, w.Pair)
		}
		if len(g.Answers) != len(w.Answers) {
			t.Errorf("%s: %d answers, goldens have %d", w.Pair, len(g.Answers), len(w.Answers))
		} else {
			for j := range w.Answers {
				if g.Answers[j] != w.Answers[j] {
					t.Errorf("%s: answer %d is %q, goldens have %q", w.Pair, j, g.Answers[j], w.Answers[j])
				}
			}
		}
		for name, wv := range w.Counts {
			if gv, ok := g.Counts[name]; !ok || gv != wv {
				t.Errorf("%s: %s = %d, goldens have %d", w.Pair, name, gv, wv)
			}
		}
		for name, gv := range g.Counts {
			if _, ok := w.Counts[name]; !ok {
				t.Errorf("%s: %s = %d, not in the goldens", w.Pair, name, gv)
			}
		}
	}
}
