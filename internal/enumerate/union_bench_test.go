package enumerate

import (
	"context"
	"testing"
	"time"

	"rex/internal/kb"
	"rex/internal/kbgen"
)

// BenchmarkPathUnionPrune times the union stage alone on the pair that
// sets engine_cold's query_p95_ms (medium seed 42, film_5972 →
// film_4871: 52 path explanations, 77 explanations): path enumeration
// runs once outside the timer, every iteration is one pathUnionPrune on
// warm pooled state. joins/op and skipped/op are the merger's own
// counts of hash joins run and candidates proven empty.
func BenchmarkPathUnionPrune(b *testing.B) {
	opt, err := kbgen.PresetOptions("medium", 42)
	if err != nil {
		b.Fatal(err)
	}
	g := kbgen.Generate(opt)
	g.Freeze()
	s, e := g.NodeByName("film_5972"), g.NodeByName("film_4871")
	if s == kb.InvalidNode || e == kb.InvalidNode {
		b.Fatal("benchmark pair missing from the medium preset")
	}
	cfg := Config{PathAlg: PathPrioritized, UnionAlg: UnionPrune}.normalized()
	paths := Paths(g, s, e, cfg)
	st := newEnumState()
	ctx := context.Background()
	union := func() int {
		out, _, err := st.pathUnionPrune(ctx, paths, cfg.MaxPatternSize, time.Time{})
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
