package rex

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
)

var workMillion = flag.Bool("work-million", false, "also check the million preset's work goldens (≈ 1.2 s to generate, a few seconds of queries)")

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
	d.Counts["instances"] = tr.Instances
	d.Counts["counted"] = tr.Counted
	for _, s := range tr.Stages {
		d.Counts[s.Stage+".calls"] = s.Calls
		d.Counts[s.Stage+".items"] = s.Items
	}
	return d
}

// Bounds on the bytes million's uncached queries allocate, each the
// value measured when it was set plus 5 %: the 33 pairs together, and
// the hub pair whose union sets the preset's slowest query. Allocation
// is counted, not timed, so the bounds can be tight; a change that moves
// it re-measures them and says so.
//
// maxHubWarmAllocBytes bounds the hub pair asked once more on the
// Explainer that just answered it, whose enumerate.Pool is warm: the
// only query here that could reuse pooled state. It measured 217.3–219.7
// MB, as much as a fresh query, because the hub's union grows the merger
// past retainedCap and the pool drops the state.
const (
	maxMillionAllocBytes = 307_340_000
	maxHubAllocBytes     = 230_720_000
	maxHubWarmAllocBytes = 230_650_000
	hubPair              = "film_52640->actor_0000"
)

// maxHubPathSearchColdBytes bounds what the path search alone allocates
// on million's hub pair (film_52640→actor_0000, 29 432 paths in 82 path
// explanations) on a fresh enumerate.Pool: the join's records, the
// paths filed by step sequence and the explanations they become. It is
// the value measured when it was set plus 5 %. A 140-B record per path
// allocates about 23 MB here.
const maxHubPathSearchColdBytes = 6_222_240

// TestHubPathSearchColdAlloc holds the hub pair's path search, cold, to
// maxHubPathSearchColdBytes; it runs with -work-million, not under the
// race detector.
func TestHubPathSearchColdAlloc(t *testing.T) {
	if !*workMillion {
		t.Skip("million takes about 1.2 s to generate; run with -work-million")
	}
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	opt, err := kbgen.PresetOptions("million", 42)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(opt)
	s, e := g.NodeByName("film_52640"), g.NodeByName("actor_0000")
	cfg := enumerate.Config{Pool: enumerate.NewPool()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	paths, _, err := enumerate.PathsBudgeted(context.Background(), g, s, e, cfg)
	runtime.ReadMemStats(&after)
	if err != nil || len(paths) != 82 {
		t.Fatalf("hub path search: %d path explanations, err %v; want 82", len(paths), err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("hub path search, cold: %d B", bytes)
	if bytes > maxHubPathSearchColdBytes {
		t.Errorf("the hub pair's cold path search allocated %d B, above the bound of %d B", bytes, maxHubPathSearchColdBytes)
	}
}

// presetFingerprints pins the datasets the work goldens are drawn from,
// so a change to the generator or to kb.Builder cannot move them unseen.
var presetFingerprints = map[string]string{
	"medium":  "58edac2f14cc95e1",
	"million": "a02a278ab9e9f77d",
}

// maxUnattributedShare bounds the part of million's 33-pair traced time
// that falls in no top-level stage. medium's share is logged only: its
// smallest pairs take a few milliseconds, of which the facade's fixed
// cost is a fifth.
const maxUnattributedShare = 0.05

// TestWorkGoldens pins, per pair of the benchmark's pair set, what every
// uncached query answers and how much work it does: the answers must
// never change, and a change to any work count (expansions, merges,
// joins, joins proven empty, bindings, walk steps, enumerated and
// counted instances, per-stage calls and items) is deliberate,
// regenerated with -update and declared. medium always runs; million
// runs with -work-million. Each pair's uncached time, the part of it no
// stage holds and the bytes it allocated are logged; million's
// unattributed share, its 33-pair allocation and the hub pair's are
// gated (not under the race detector, which allocates for itself). It
// runs on at least two cores: a lone query's ranking then scores in two
// lanes, and its pruning thresholds, hence its counts, are the
// two-lane ones on every runner.
func TestWorkGoldens(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(n)
	}
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
			if fp := g.Fingerprint(); fp != presetFingerprints[preset] {
				t.Fatalf("%s seed 42 fingerprint %s, want %s", preset, fp, presetFingerprints[preset])
			}
			k := &KB{g: g}
			var got []workDigest
			var total time.Duration
			var traced, unattributed float64
			var allocated, hub, hubWarm uint64
			var ms runtime.MemStats
			ask := func(ex *Explainer, p Pair) (*Result, time.Duration, uint64) {
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				t0 := time.Now()
				res, err := ex.ExplainContext(WithTrace(context.Background()), p.Start, p.End)
				took := time.Since(t0)
				runtime.ReadMemStats(&ms)
				if err != nil {
					t.Fatalf("%s->%s: %v", p.Start, p.End, err)
				}
				return res, took, ms.TotalAlloc - before
			}
			for _, p := range pairs {
				ex, err := NewExplainer(k, Options{CacheSize: 0})
				if err != nil {
					t.Fatal(err)
				}
				res, took, bytes := ask(ex, p)
				total += took
				traced += res.Trace.TotalMS
				unattributed += res.Trace.UnattributedMS
				allocated += bytes
				d := digestWork(p, res)
				t.Logf("%s: %.2f ms, %.2f ms unattributed, %d B", d.Pair, float64(took)/1e6, res.Trace.UnattributedMS, bytes)
				if d.Pair == hubPair {
					hub = bytes
					// Once more at once, before a collection can empty the
					// pools the first answer filled.
					_, _, hubWarm = ask(ex, p)
					t.Logf("%s on its warm Explainer: %d B", d.Pair, hubWarm)
				}
				got = append(got, d)
			}
			share := unattributed / traced
			t.Logf("%d pairs: %.1f ms; %.1f of %.1f traced ms (%.1f %%) unattributed; %d B allocated", len(pairs), float64(total)/1e6, unattributed, traced, 100*share, allocated)
			if preset == "million" && share > maxUnattributedShare {
				t.Errorf("%.1f %% of the traced time falls in no stage, above %.0f %%", 100*share, 100*maxUnattributedShare)
			}
			if preset == "million" && !raceEnabled {
				if allocated > maxMillionAllocBytes {
					t.Errorf("the %d pairs allocated %d B, above the bound of %d B", len(pairs), allocated, maxMillionAllocBytes)
				}
				if hub > maxHubAllocBytes {
					t.Errorf("%s allocated %d B, above the bound of %d B", hubPair, hub, maxHubAllocBytes)
				}
				if hubWarm > maxHubWarmAllocBytes {
					t.Errorf("%s allocated %d B on its warm Explainer, above the bound of %d B", hubPair, hubWarm, maxHubWarmAllocBytes)
				}
			}
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
