package enumerate

import (
	"context"
	"flag"
	"sync"
	"testing"
	"time"

	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/oracle"
	"rex/internal/pattern"
)

var unionMillion = flag.Bool("union-million", false, "also run BenchmarkPathUnionPruneVsBasic on the million preset (≈ 5 s to generate and sample)")

// benchGraphs are the benchmark's KB (kbgen medium, seed 42) and the
// paper-scale one (kbgen million, seed 42, ≈ 1.2 s to generate), each
// generated once per process.
var (
	benchGraph   = sync.OnceValue(func() *kb.Graph { return presetGraph("medium") })
	millionGraph = sync.OnceValue(func() *kb.Graph { return presetGraph("million") })
)

func presetGraph(preset string) *kb.Graph {
	opt, err := kbgen.PresetOptions(preset, 42)
	if err != nil {
		panic(err)
	}
	return kbgen.Generate(opt)
}

// namedPair looks a pair up by entity names.
func namedPair(b *testing.B, g *kb.Graph, start, end string) (kb.NodeID, kb.NodeID) {
	s, e := g.NodeByName(start), g.NodeByName(end)
	if s == kb.InvalidNode || e == kb.InvalidNode {
		b.Fatalf("benchmark pair %s->%s missing from the preset", start, end)
	}
	return s, e
}

// benchPair returns the medium KB and the pair that sets engine_cold's
// query_p95_ms.
func benchPair(b *testing.B) (*kb.Graph, kb.NodeID, kb.NodeID) {
	g := benchGraph()
	s, e := namedPair(b, g, "film_5972", "film_4871")
	return g, s, e
}

// BenchmarkPathEnum times path search and grouping alone, on warm pooled
// state: on benchPair's pair (52 path explanations), the join a plain
// request takes (exhaustive) and the same join capped at 20 expansions,
// which stops it at 35 of them (anytime); and the join on million's hub
// pair film_52640→actor_0000 (29 432 paths), skipped under -short.
func BenchmarkPathEnum(b *testing.B) {
	for _, route := range []string{"exhaustive", "anytime", "million-hub"} {
		b.Run(route, func(b *testing.B) {
			g, s, e := benchPair(b)
			cfg := Config{Pool: NewPool()}
			switch route {
			case "anytime":
				cfg.Budget.MaxExpansions = 20
			case "million-hub":
				if testing.Short() {
					b.Skip("million takes about 1.2 s to generate; skipped under -short")
				}
				g = millionGraph()
				s, e = namedPair(b, g, "film_52640", "actor_0000")
			}
			enum := func() int {
				paths, truncated, err := PathsBudgeted(context.Background(), g, s, e, cfg)
				if err != nil || truncated != (route == "anytime") {
					b.Fatalf("truncated=%v err=%v", truncated, err)
				}
				return len(paths)
			}
			want := enum()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := enum(); got != want {
					b.Fatalf("enumeration returned %d path explanations, then %d", want, got)
				}
			}
			b.ReportMetric(float64(want), "explanations")
		})
	}
}

// BenchmarkPathUnionPrune times the union stage alone on the same pair
// (52 path explanations, 77 explanations): path enumeration
// runs once outside the timer, every iteration is one pathUnionPrune on
// warm pooled state. joins/op and skipped/op are the merger's own
// counts of candidates joined and variable pairs its mask ruled out.
func BenchmarkPathUnionPrune(b *testing.B) {
	g, s, e := benchPair(b)
	cfg := Config{}.normalized()
	paths, _, _ := PathsBudgeted(context.Background(), g, s, e, cfg)
	st := newEnumState()
	ctx := context.Background()
	union := func() int {
		out, _, err := st.pathUnionPrune(ctx, paths, cfg.MaxPatternSize)
		if err != nil {
			b.Fatal(err)
		}
		return len(out)
	}
	want := union()
	before := st.merger.JoinStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := union(); got != want {
			b.Fatalf("union returned %d explanations, then %d", want, got)
		}
	}
	j := st.merger.JoinStats().Sub(before)
	b.ReportMetric(float64(j.Run)/float64(b.N), "joins/op")
	b.ReportMetric(float64(j.Skipped)/float64(b.N), "skipped/op")
	b.ReportMetric(float64(want), "explanations")
}

// BenchmarkPathUnionPruneVsBasic times the served union (Algorithm 4,
// PathUnionPrune) against the paper's Algorithm 3 (oracle.PathUnionBasic)
// on the same path explanations: those of the benchmark's 33 pairs (11
// per connectedness bucket at pair seed 43, as the work goldens draw
// them). One op is one pass over every pair; slowest-ms is the slowest
// pair's share of it. Before timing, both unions must give the same
// explanation set, by canonical pattern key and canonical instance keys.
// medium always runs; million runs with -union-million.
func BenchmarkPathUnionPruneVsBasic(b *testing.B) {
	presets := []string{"medium"}
	if *unionMillion {
		presets = append(presets, "million")
	}
	cfg := Config{}.normalized()
	for _, preset := range presets {
		g := benchGraph()
		if preset != "medium" {
			g = millionGraph()
		}
		var paths [][]*pattern.Explanation
		for _, p := range kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: 11, Seed: 43}) {
			ps, _, _ := PathsBudgeted(context.Background(), g, p.Start, p.End, cfg)
			paths = append(paths, ps)
		}
		for _, qpath := range paths {
			served := PathUnionPrune(qpath, cfg.MaxPatternSize)
			basic := oracle.PathUnionBasic(qpath, cfg.MaxPatternSize)
			diffSignatures(b, preset, resultSignature(b, basic), resultSignature(b, served))
		}
		for _, union := range []struct {
			name string
			run  func([]*pattern.Explanation, int) []*pattern.Explanation
		}{{"prune", PathUnionPrune}, {"basic", oracle.PathUnionBasic}} {
			b.Run(preset+"/"+union.name, func(b *testing.B) {
				var slowest time.Duration
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, qpath := range paths {
						t0 := time.Now()
						union.run(qpath, cfg.MaxPatternSize)
						slowest = max(slowest, time.Since(t0))
					}
				}
				b.ReportMetric(float64(slowest)/1e6, "slowest-ms")
				b.ReportMetric(float64(len(paths)), "pairs")
			})
		}
	}
}
