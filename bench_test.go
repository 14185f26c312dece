package rex

// Benchmarks mirroring every figure and table of the paper's evaluation
// (Section 5), plus micro-benchmarks for the load-bearing primitives.
// The experiment harness behind `cmd/rexpaper` produces the full
// tables; these testing.B benchmarks pin the same code paths into
// `go test -bench` so regressions surface in ordinary development.
//
// Workloads are built once per process at a reduced scale so the whole
// suite completes on a single core; rexpaper regenerates the figures at
// full workload size. End-to-end latency, throughput and write-path cost
// are the benchmark module's job (`bash benchmark/run.sh`).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rex/internal/enumerate"
	"rex/internal/harness"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/live"
	"rex/internal/match"
	"rex/internal/measure"
	"rex/internal/pattern"
	"rex/internal/rank"
	"rex/internal/relstore"
	"rex/internal/study"
)

var (
	benchOnce sync.Once
	benchEnv  *harness.Env
	benchRep  map[kb.ConnBucket]kbgen.Pair // one representative pair per bucket
)

func benchSetup(b *testing.B) (*harness.Env, map[kb.ConnBucket]kbgen.Pair) {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = harness.NewEnv(harness.EnvOptions{
			Scale: 0.5, Seed: 42, PerBucket: 3, GlobalSamples: 10,
		})
		benchRep = map[kb.ConnBucket]kbgen.Pair{}
		for _, bu := range harness.Buckets() {
			ps := benchEnv.PairsIn(bu)
			if len(ps) > 0 {
				benchRep[bu] = ps[0]
			}
		}
	})
	return benchEnv, benchRep
}

var benchCfg = enumerate.Config{MaxPatternSize: 5}

// BenchmarkFig7Enumeration covers Figure 7: the enumeration algorithm
// combinations per connectedness bucket. The NaiveEnum baseline runs
// only on the low bucket — on denser pairs a single iteration takes tens
// of seconds, which is the paper's point but not a useful benchmark.
func BenchmarkFig7Enumeration(b *testing.B) {
	env, rep := benchSetup(b)
	for _, combo := range harness.Fig7Combos() {
		for _, bucket := range harness.Buckets() {
			if combo.Name == harness.NaiveRow && bucket != kb.ConnLow {
				continue
			}
			p, ok := rep[bucket]
			if !ok {
				continue
			}
			b.Run(combo.Name+"/"+bucket.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					combo.Run(env.G, p.Start, p.End, 5)
				}
			})
		}
	}
}

// BenchmarkFig8Scaling covers Figure 8: enumeration cost on the densest
// workload pair with the best algorithms (time per enumerated instance
// is the figure's slope).
func BenchmarkFig8Scaling(b *testing.B) {
	env, rep := benchSetup(b)
	p, ok := rep[kb.ConnHigh]
	if !ok {
		b.Skip("no high-connectedness pair at bench scale")
	}
	es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), env.G, p.Start, p.End, benchCfg)
	instances := 0
	for _, ex := range es {
		instances += len(ex.Instances)
	}
	b.ReportMetric(float64(instances), "instances")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enumerate.ExplanationsBudgeted(context.Background(), env.G, p.Start, p.End, benchCfg)
	}
}

// BenchmarkFig9TopK covers Figure 9: full enumerate-then-rank vs the
// interleaved top-10 pruning for monocount.
func BenchmarkFig9TopK(b *testing.B) {
	env, rep := benchSetup(b)
	p, ok := rep[kb.ConnMedium]
	if !ok {
		b.Skip("no medium pair at bench scale")
	}
	ctx := &measure.Context{G: env.G, Start: p.Start, End: p.End}
	m := measure.Monocount{}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), env.G, p.Start, p.End, benchCfg)
			rank.GeneralBudgeted(context.Background(), ctx, es, m, 10)
		}
	})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rank.TopKAntiMonotoneBudgeted(context.Background(), env.G, p.Start, p.End, benchCfg, ctx, m, 10)
		}
	})
}

// BenchmarkFig10KSweep covers Figure 10: pruned ranking cost versus k.
func BenchmarkFig10KSweep(b *testing.B) {
	env, rep := benchSetup(b)
	p, ok := rep[kb.ConnMedium]
	if !ok {
		b.Skip("no medium pair at bench scale")
	}
	ctx := &measure.Context{G: env.G, Start: p.Start, End: p.End}
	m := measure.Monocount{}
	for _, k := range []int{1, 10, 100} {
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rank.TopKAntiMonotoneBudgeted(context.Background(), env.G, p.Start, p.End, benchCfg, ctx, m, k)
			}
		})
	}
}

// BenchmarkFig11Distributional covers Figure 11: the four distributional
// ranking scenarios.
func BenchmarkFig11Distributional(b *testing.B) {
	env, rep := benchSetup(b)
	p, ok := rep[kb.ConnMedium]
	if !ok {
		b.Skip("no medium pair at bench scale")
	}
	es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), env.G, p.Start, p.End, benchCfg)
	ctx := &measure.Context{
		G: env.G, Start: p.Start, End: p.End,
		SampleStarts: measure.SampleStartsOfType(
			env.G, env.G.Node(p.Start).Type, env.Opt.GlobalSamples, env.Opt.Seed),
	}
	local := measure.LocalPosition{}
	global := measure.GlobalPosition{}
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rank.GeneralBudgeted(context.Background(), ctx, es, local, 10)
		}
	})
	b.Run("local-prune", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rank.TopKDistributionalBudgeted(context.Background(), ctx, es, local, 10, time.Time{})
		}
	})
	b.Run("global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rank.GeneralBudgeted(context.Background(), ctx, es, global, 10)
		}
	})
	b.Run("global-prune", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rank.TopKDistributionalBudgeted(context.Background(), ctx, es, global, 10, time.Time{})
		}
	})
}

// BenchmarkTable1Effectiveness covers Table 1's inner loop: ranking and
// judging one pair under one measure (size+local-dist, the winner).
func BenchmarkTable1Effectiveness(b *testing.B) {
	g := kbgen.Sample()
	s := g.NodeByName("brad_pitt")
	e := g.NodeByName("angelina_jolie")
	es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, benchCfg)
	ctx := &measure.Context{G: g, Start: s, End: e}
	panel := study.NewPanel(g, s, e, es, 10, 42)
	m := measure.Combined{Primary: measure.Size{}, Secondary: measure.LocalPosition{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked, _, _ := rank.GeneralBudgeted(context.Background(), ctx, es, m, 10)
		judged := make([]study.Judged, len(ranked))
		for j, r := range ranked {
			judged[j] = panel.Judge(r.Ex)
		}
		study.DCG(judged, 10)
	}
}

// --- Micro-benchmarks for the primitives behind the figures. ---

func samplePatterns(b *testing.B) (*kb.Graph, []*pattern.Explanation, kb.NodeID, kb.NodeID) {
	b.Helper()
	g := kbgen.Sample()
	s := g.NodeByName("brad_pitt")
	e := g.NodeByName("angelina_jolie")
	es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, benchCfg)
	return g, es, s, e
}

func BenchmarkCanonicalKey(b *testing.B) {
	g, es, _, _ := samplePatterns(b)
	_ = g
	// Rebuild patterns each round so the key cache cannot amortise.
	edges := make([][]pattern.Edge, len(es))
	ns := make([]int, len(es))
	for i, ex := range es {
		edges[i] = append([]pattern.Edge{}, ex.P.Edges()...)
		ns[i] = ex.P.NumVars()
	}
	sch := es[0].P.Schema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pattern.MustNew(sch, ns[i%len(ns)], edges[i%len(edges)])
		_ = p.CanonicalKey()
	}
}

// BenchmarkPatternKey measures the interned 64-bit key on fresh
// patterns: the full dedup cost the union and rank layers now pay per
// candidate pattern.
func BenchmarkPatternKey(b *testing.B) {
	_, es, _, _ := samplePatterns(b)
	edges := make([][]pattern.Edge, len(es))
	ns := make([]int, len(es))
	for i, ex := range es {
		edges[i] = append([]pattern.Edge{}, ex.P.Edges()...)
		ns[i] = ex.P.NumVars()
	}
	sch := es[0].P.Schema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pattern.MustNew(sch, ns[i%len(ns)], edges[i%len(edges)])
		_ = p.Key()
	}
}

func BenchmarkMerge(b *testing.B) {
	_, es, _, _ := samplePatterns(b)
	var re1, re2 *pattern.Explanation
	for _, ex := range es {
		if ex.P.IsPath() && ex.P.NumVars() == 3 {
			if re1 == nil {
				re1 = ex
			} else if re2 == nil {
				re2 = ex
			}
		}
	}
	if re1 == nil || re2 == nil {
		b.Skip("need two 3-variable paths")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pattern.Merge(re1, re2, 5)
	}
}

// BenchmarkMatchCount is the alloc-regression benchmark for the pooled
// matcher's steady-state Count path (the hot operation behind every
// aggregate and distributional measure). The committed BENCH_seed.json
// baseline recorded 15 allocs/op before pooling; steady state is now
// allocation-free.
func BenchmarkMatchCount(b *testing.B) {
	g, es, s, e := samplePatterns(b)
	p := es[len(es)-1].P // the largest pattern
	match.Count(g, p, s, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.Count(g, p, s, e)
	}
}

func BenchmarkMatcherFreeEnd(b *testing.B) {
	g, es, s, _ := samplePatterns(b)
	p := es[0].P
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.CountByEnd(g, p, s)
	}
}

func BenchmarkRelstoreGroupCounts(b *testing.B) {
	g, es, s, _ := samplePatterns(b)
	st := relstore.FromGraph(g)
	q := relstore.Compile(g, es[0].P, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.GroupCounts(q)
	}
}

// BenchmarkConnectedness times one connectedness count of a low and a
// high pair at the paper's length limit 4, exact (cap -1) and capped at
// 101, the form kbgen.SamplePairs buckets with.
func BenchmarkConnectedness(b *testing.B) {
	env, rep := benchSetup(b)
	for _, bucket := range []kb.ConnBucket{kb.ConnLow, kb.ConnHigh} {
		p, ok := rep[bucket]
		for _, c := range []int{-1, 101} {
			b.Run(fmt.Sprintf("%v/cap=%d", bucket, c), func(b *testing.B) {
				if !ok {
					b.Skipf("no %v pair", bucket)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					env.G.Connectedness(p.Start, p.End, 4, c)
				}
			})
		}
	}
}

// BenchmarkSamplePairs times drawing the repository benchmark's 33 pairs
// (11 per bucket, pair seed 43) from a kbgen preset at seed 42: on
// medium, and on million unless -short.
func BenchmarkSamplePairs(b *testing.B) {
	for _, preset := range []string{"medium", "million"} {
		b.Run(preset, func(b *testing.B) {
			if preset == "million" && testing.Short() {
				b.Skip("million takes about 1.2 s to generate; skipped under -short")
			}
			g := benchGraph(b, preset)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: 11, Seed: 43})
			}
		})
	}
}

// BenchmarkKBGeneration times generating the repository benchmark's KB,
// kbgen preset medium at seed 42, and million unless -short: the part of
// every workload's setup_s that is building the graph.
func BenchmarkKBGeneration(b *testing.B) {
	for _, preset := range []string{"medium", "million"} {
		b.Run(preset, func(b *testing.B) {
			if preset == "million" && testing.Short() {
				b.Skip("million takes about 1.2 s to generate; skipped under -short")
			}
			opt, err := kbgen.PresetOptions(preset, 42)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kbgen.Generate(opt)
			}
		})
	}
}

// --- Concurrency and caching benchmarks for the serving-layer path. ---

// benchBatchPairs draws the bucketed workload as requests for the batch
// benchmarks.
func benchBatchPairs(b *testing.B, env *harness.Env) []Request {
	b.Helper()
	var pairs []Request
	for _, bu := range harness.Buckets() {
		for _, p := range env.PairsIn(bu) {
			pairs = append(pairs, Request{Pair: Pair{
				Start: env.G.NodeName(p.Start),
				End:   env.G.NodeName(p.End),
			}})
		}
	}
	if len(pairs) == 0 {
		b.Skip("no workload pairs at bench scale")
	}
	return pairs
}

// BenchmarkBatchExplain measures batch throughput serial vs fanned out
// over the worker pool: the parallel/serial ratio is the speedup the
// concurrent serving layer buys on multi-core hardware. Caching is off
// so every pair pays full query cost.
func BenchmarkBatchExplain(b *testing.B) {
	env, _ := benchSetup(b)
	kbv := &KB{g: env.G}
	ex, err := NewExplainer(kbv, Options{Measure: "size+monocount", TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	pairs := benchBatchPairs(b, env)
	ctx := context.Background()
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := ex.BatchExplain(ctx, pairs, BatchOptions{Concurrency: bench.workers})
				for _, br := range out {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
			b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkExplainCache measures the cold query path against the LRU hit
// path that the serving layer rides on repeated traffic.
func BenchmarkExplainCache(b *testing.B) {
	kbv := SampleKB()
	cold, err := NewExplainer(kbv, Options{Measure: "size+local-dist", TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	hot, err := NewExplainer(kbv, Options{Measure: "size+local-dist", TopK: 10, CacheSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := hot.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
		b.Fatal(err) // prime the cache
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cold.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hot.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExplain is the end-to-end wall-time benchmark: one uncached
// query under the paper's default measure, through enumeration, the
// shared-computation evaluator and ranking.
func BenchmarkExplain(b *testing.B) {
	kbv := SampleKB()
	ex, err := NewExplainer(kbv, Options{Measure: "size+local-dist", TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreApplyDelta is the write-path benchmark: one small
// localized delta applied and hot-swapped through a live store per
// iteration — O(delta) overlay build and explainer construction
// included. Each iteration's delta attaches a fresh chain of
// entities under one label, so successive applies stack overlay
// generations and periodically exercise compaction.
func BenchmarkStoreApplyDelta(b *testing.B) {
	st, err := NewStore(SampleKB(), Options{Measure: "size", TopK: 10, CacheSize: 128})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Current().Explainer.Explain("kate_winslet", "leonardo_dicaprio"); err != nil {
		b.Fatal(err) // something warm to carry across every swap
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta := "label\tbench_ingest\tU\n" +
			"node\t" + benchName("bench_node", i) + "\tconcept\n" +
			"edge\tkate_winslet\t" + benchName("bench_node", i) + "\tbench_ingest\n"
		if _, err := st.Apply(strings.NewReader(delta)); err != nil {
			b.Fatal(err)
		}
	}
}

// ingestDeltas generates n deltas of the repository benchmark's shape
// (deltaStream in benchmark/data.go, a separate module these tests
// cannot import): each hangs a chain of fresh entities off one
// low-degree node of g and, once 2000 ingested edges are alive, deletes
// the oldest, 100 records in all; every 50th registers a new label and
// moves the stream onto it.
func ingestDeltas(g *kb.Graph, seed int64, n int) []string {
	const ops, liveEdges, ringSize, perLabel = 100, 2000, 8000, 50
	rng := rand.New(rand.NewSource(seed))
	var fifo []string // "from\tto\tlabel" of the live ingested edges, oldest first
	out := make([]string, n)
	slot := 0
	for i := range out {
		var sb strings.Builder
		label := fmt.Sprintf("ingest%d", i/perLabel)
		used := 0
		if i%perLabel == 0 {
			fmt.Fprintf(&sb, "label\t%s\tU\n", label)
			used++
		}
		anchor := kb.NodeID(rng.Intn(g.NumNodes()))
		for try := 0; try < 16 && g.Degree(anchor) > 8; try++ {
			if id := kb.NodeID(rng.Intn(g.NumNodes())); g.Degree(id) < g.Degree(anchor) {
				anchor = id
			}
		}
		prev := g.NodeName(anchor)
		for used < ops {
			if len(fifo) > liveEdges {
				fmt.Fprintf(&sb, "deledge\t%s\n", fifo[0])
				fifo = fifo[1:]
				used++
				continue
			}
			if used+2 > ops {
				break
			}
			name := fmt.Sprintf("ing%d", slot%ringSize)
			slot++
			edge := prev + "\t" + name + "\t" + label
			fmt.Fprintf(&sb, "node\t%s\tconcept\nedge\t%s\n", name, edge)
			fifo = append(fifo, edge)
			prev = name
			used += 2
		}
		out[i] = sb.String()
	}
	return out
}

// benchMediumGraph generates the repository benchmark's KB: kbgen
// preset medium, seed 42.
func benchMediumGraph(b testing.TB) *kb.Graph { return benchGraph(b, "medium") }

// benchGraph generates a kbgen preset at seed 42: "medium" is the
// repository benchmark's KB (23 474 nodes, 110 300 edges), "million" the
// paper's scale (254 474 nodes, 1 214 370 edges; 1.6 s to generate).
func benchGraph(b testing.TB, preset string) *kb.Graph {
	b.Helper()
	opt, err := kbgen.PresetOptions(preset, 42)
	if err != nil {
		b.Fatal(err)
	}
	return kbgen.Generate(opt)
}

var benchCompacted *kb.Graph

// benchCompactChain is the graph BenchmarkCompact folds: the repository
// benchmark's KB under 32 stacked deltas. A fold copies every CSR block
// whatever the depth, and the depth only sets how many patched spans it
// takes from the overlay; 32 keeps the figure comparable with the fold
// figures recorded in DESIGN.md. The 64
// deltas before them (two compactions) bring the stream to its steady
// state, where every delta also deletes.
func benchCompactChain(tb testing.TB) *kb.Graph {
	tb.Helper()
	const depth = 32
	g := benchMediumGraph(tb)
	for i, body := range ingestDeltas(g, 42, 3*depth) {
		g = benchApply(tb, g, body)
		if i == depth-1 || i == 2*depth-1 {
			g = g.Compact()
		}
	}
	if d := g.Overlay().Depth; d != depth {
		tb.Fatalf("overlay depth %d, want %d", d, depth)
	}
	return g
}

// benchApply applies one delta in the wire format to g as an overlay
// generation.
func benchApply(tb testing.TB, g *kb.Graph, body string) *kb.Graph {
	tb.Helper()
	d, err := live.ParseDelta(strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	if g, _, _, err = d.Apply(g); err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkCompact times the write path's fold on the
// repository benchmark's KB: one compaction of benchCompactChain (3.2 ms,
// 93 allocs and 8.9 MB before the fold shared the node table and the
// name index).
func BenchmarkCompact(b *testing.B) {
	g := benchCompactChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCompacted = g.Compact()
	}
}

// TestCompactAllocBound holds a compaction to its arrays: the CSR blocks,
// the label tables and the changed type lists. The node table and the
// name index are shared, not copied or rebuilt (93 allocations and
// 8.9 MB when they were).
func TestCompactAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := benchCompactChain(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		benchCompacted = g.Compact()
	}
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / runs; n > 40 {
		t.Errorf("a compaction allocates %d times, want ≤ 40", n)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6; mb > 7.5 {
		t.Errorf("a compaction allocates %.2f MB, want ≤ 7.5", mb)
	}
}

// benchSnapshot is benchGraph with its binary encoding.
func benchSnapshot(b testing.TB, preset string) (*kb.Graph, []byte) {
	b.Helper()
	g := benchGraph(b, preset)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	return g, buf.Bytes()
}

// BenchmarkSnapshotDecode times what a recovery, a restart and a snapshot
// install all wait for: kb.ReadBinary from memory of the repository
// benchmark's KB (1.36 MB), and of million's (16.6 MB) unless -short.
func BenchmarkSnapshotDecode(b *testing.B) {
	for _, preset := range []string{"medium", "million"} {
		b.Run(preset, func(b *testing.B) {
			if preset == "million" && testing.Short() {
				b.Skip("million takes about 1.2 s to generate; skipped under -short")
			}
			_, data := benchSnapshot(b, preset)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := kb.ReadBinary(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				benchCompacted = g
			}
		})
	}
}

// BenchmarkSnapshotEncode times the CPU share of a checkpoint:
// WriteBinary of the same KB into a writer that discards (3.97 ms before
// PR 22). B/op is the encoder's window, not the snapshot.
func BenchmarkSnapshotEncode(b *testing.B) {
	g, data := benchSnapshot(b, "medium")
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteBinary(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotDecodeAllocBound holds the codec to one buffer each way:
// decoding the benchmark's KB allocates its arrays, its two indexes and
// one string for every name (141 254 allocations when each value went
// through a stream), and encoding it allocates the window.
func TestSnapshotDecodeAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g, data := benchSnapshot(t, "medium")
	if n := testing.AllocsPerRun(3, func() {
		if _, err := kb.ReadBinary(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}); n > 1000 {
		t.Errorf("decoding the medium snapshot allocates %.0f times, want ≤ 1000", n)
	}
	if n := testing.AllocsPerRun(3, func() {
		if err := g.WriteBinary(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("encoding the medium snapshot allocates %.0f times, want ≤ 4", n)
	}
}

// Bounds on the heap a decoded snapshot holds once collected, each the
// value measured when it was set plus 5 %: what a replica keeps resident
// for its knowledge base, whatever the queries on it allocate. They
// measured 3.92 MB and 53.99 MB when set.
var maxRestingHeap = map[string]uint64{
	"medium":  4_116_000,
	"million": 56_693_000,
}

// TestSnapshotRestingHeap logs and bounds the live heap a decoded
// snapshot holds after a collection: medium always, million with
// -work-million (not under the race detector, which allocates for
// itself). The snapshot's own bytes are live before and after, so the
// difference is the graph.
func TestSnapshotRestingHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under the race detector")
	}
	for _, preset := range []string{"medium", "million"} {
		t.Run(preset, func(t *testing.T) {
			if preset == "million" && !*workMillion {
				t.Skip("million takes about 1.2 s to generate; run with -work-million")
			}
			_, data := benchSnapshot(t, preset)
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.HeapAlloc
			g, err := kb.ReadBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			held := ms.HeapAlloc - before
			runtime.KeepAlive(g)
			t.Logf("%s: the decoded graph holds %.2f MB resting (%d B)", preset, float64(held)/1e6, held)
			if held > maxRestingHeap[preset] {
				t.Errorf("%s: the decoded graph holds %d B, above the bound of %d B", preset, held, maxRestingHeap[preset])
			}
		})
	}
}

// BenchmarkStoreApplyCheckpoint times the acknowledgement of a durable
// apply (fsync always) on the repository benchmark's KB at the default
// policies: each iteration applies 64 deltas and times one of them.
// "trigger" times the 64th, the one that hits CheckpointEvery: it seals
// a WAL segment and starts a checkpoint, which runs behind the ack.
// "plain" times the 63rd, which does not; "off" is the 64th with
// checkpoints disabled. The three should be within 2× of each other.
func BenchmarkStoreApplyCheckpoint(b *testing.B) {
	const every = live.DefaultCheckpointEvery
	for _, bc := range []struct {
		name         string
		every, timed int // checkpoint policy; which delta of the 64 is timed
	}{{"trigger", every, every - 1}, {"plain", every, every - 2}, {"off", -1, every - 1}} {
		b.Run(bc.name, func(b *testing.B) {
			g := benchMediumGraph(b)
			deltas := ingestDeltas(g, 42, every*b.N)
			st, err := NewStore(&KB{g: g}, Options{Measure: "size", TopK: 10, Durability: DurabilityOptions{
				Dir: b.TempDir(), Fsync: "always", CheckpointEvery: bc.every}})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			apply := func(d string) {
				if _, err := st.Apply(strings.NewReader(d)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				for j, d := range deltas[i*every : (i+1)*every] {
					if j == bc.timed {
						b.StartTimer()
						apply(d)
						b.StopTimer()
					} else {
						apply(d)
					}
				}
			}
			st.Close() //nolint:errcheck // off the clock: it waits for the last checkpoint
		})
	}
}

// nodeDeltaStore is a store over g, after one node-adding delta (the
// first one an overlay chain appends to a freshly built graph copies its
// node table into an array with room to grow, and the deltas after it
// append in place), and the node-adding deltas to apply to it: delta i
// adds a node and an edge to it from the i-th of g's nodes of degree 1
// to 8, in ID order, so no node's span grows with the number applied.
func nodeDeltaStore(tb testing.TB, g *kb.Graph) (st *Store, delta func(i int) string) {
	tb.Helper()
	var anchors []kb.NodeID
	for id := range kb.NodeID(g.NumNodes()) {
		if d := g.Degree(id); d >= 1 && d <= 8 {
			anchors = append(anchors, id)
		}
	}
	delta = func(i int) string {
		anchor := anchors[(i+len(anchors))%len(anchors)]
		label := g.LabelName(g.Neighbors(anchor)[0].Label)
		return fmt.Sprintf("node\tnd%d\tconcept\nedge\t%s\tnd%d\t%s\n", i, g.NodeName(anchor), i, label)
	}
	st, err := NewStore(&KB{g: g}, Options{Measure: "size", TopK: 10})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Apply(strings.NewReader(delta(-1))); err != nil {
		tb.Fatal(err)
	}
	return st, delta
}

// BenchmarkStoreApplyNodeDelta times a node-adding delta — one entity
// and one edge to it — applied through a store, on the repository
// benchmark's KB and at the paper's scale. The new node is appended to
// the node table the previous generation shares, so the apply is
// O(delta): the two presets should read within 2× of each other and
// well under 64 KB an op.
func BenchmarkStoreApplyNodeDelta(b *testing.B) {
	for _, preset := range []string{"medium", "million"} {
		b.Run(preset, func(b *testing.B) {
			st, delta := nodeDeltaStore(b, benchGraph(b, preset))
			deltas := make([]string, b.N)
			for i := range deltas {
				deltas[i] = delta(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, d := range deltas {
				if _, err := st.Apply(strings.NewReader(d)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExplainUncached times one uncached query end to end — the
// engine, with no result cache in front of it — at both scales: on the
// repository benchmark's KB its heaviest film pair, and at the paper's
// scale a film pair that answers in well under a second and the hub pair
// whose union sets the preset's slowest query.
func BenchmarkExplainUncached(b *testing.B) {
	for _, c := range []struct{ name, start, end string }{
		{"medium", "film_5972", "film_4871"},
		{"million", "film_36414", "film_65793"},
		{"million-hub", "film_52640", "actor_0000"},
	} {
		b.Run(c.name, func(b *testing.B) {
			preset, _, _ := strings.Cut(c.name, "-")
			g := benchGraph(b, preset)
			ex, err := NewExplainer(&KB{g: g}, Options{CacheSize: 0})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Explain(c.start, c.end); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNodeDeltaCostIndependentOfHistory holds a node-adding delta to
// O(delta) however long the overlay chain: on the repository benchmark's
// KB, the bytes a delta allocates after 2 000 node-adding deltas are at
// most twice those after 10, and under 64 KB. Each figure is the median
// of 21 deltas, so the rare delta that regrows the node table's array
// does not set it.
func TestNodeDeltaCostIndependentOfHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	st, delta := nodeDeltaStore(t, benchMediumGraph(t))
	const window = 21
	var ms runtime.MemStats
	next := 0
	median := func() uint64 {
		bytes := make([]uint64, window)
		for i := range bytes {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := st.Apply(strings.NewReader(delta(next))); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			bytes[i] = ms.TotalAlloc - before
			next++
		}
		slices.Sort(bytes)
		return bytes[window/2]
	}
	apply := func(n int) {
		for ; next < n; next++ {
			if _, err := st.Apply(strings.NewReader(delta(next))); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(10)
	early := median()
	apply(2000)
	late := median()
	t.Logf("a node-adding delta allocates %d B after 10 deltas, %d B after 2000 (overlay depth %d)",
		early, late, st.Current().KB.g.Overlay().Depth)
	if late > 2*early || late >= 64<<10 {
		t.Fatalf("a node-adding delta allocates %d B after 2000 deltas and %d B after 10: want at most 2× and under 64 KB", late, early)
	}
}

// BenchmarkOverlayReadsByDepth times a pass over the repository
// benchmark's hot pairs (its low and medium connectedness buckets) with
// a fresh Explainer and no result cache, on generations of its delta
// stream: the plain KB (depth 0), 32 stacked deltas, 4 032 stacked
// deltas (a whole 16-second ingest run with nothing folded), and the
// compaction of the last. It is the read cost an overlay's depth buys.
func BenchmarkOverlayReadsByDepth(b *testing.B) {
	g := benchMediumGraph(b)
	var pairs []Pair
	for _, p := range kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: 11, Seed: 43}) {
		if p.Bucket != kb.ConnHigh {
			pairs = append(pairs, Pair{Start: g.NodeName(p.Start), End: g.NodeName(p.End)})
		}
	}
	gens := map[string]*kb.Graph{"depth0": g}
	for i, body := range ingestDeltas(g, 42, 4032) {
		g = benchApply(b, g, body)
		switch i + 1 {
		case 32:
			gens["depth32"] = g
		case 4032:
			gens["depth4032"], gens["depth4032compacted"] = g, g.Compact()
		}
	}
	for _, name := range []string{"depth0", "depth32", "depth4032", "depth4032compacted"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex, err := NewExplainer(&KB{g: gens[name]}, Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pairs {
					if _, err := ex.Explain(p.Start, p.End); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkStoreApplyWarmCache is BenchmarkStoreApplyDelta at the
// repository benchmark's scale with one cached result in the outgoing
// snapshot. No swap carries cached results over, so the warm cache
// costs a swap nothing: the apply is an overlay build, a fresh
// Explainer and the publish. The pair is explained again, off the clock,
// before every apply.
func BenchmarkStoreApplyWarmCache(b *testing.B) {
	g := benchMediumGraph(b)
	deltas := ingestDeltas(g, 42, b.N)
	var start kb.NodeID
	for g.Degree(start) == 0 || g.Degree(start) > 3 {
		start++
	}
	from, to := g.NodeName(start), g.NodeName(g.Neighbors(start)[0].To)
	st, err := NewStore(&KB{g: g}, Options{Measure: "size", TopK: 10, CacheSize: 128})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := st.Current().Explainer.Explain(from, to); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := st.Apply(strings.NewReader(deltas[i])); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, k int) string {
	const digits = "0123456789"
	if k == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for k > 0 {
		i--
		buf[i] = digits[k%10]
		k /= 10
	}
	return prefix + "=" + string(buf[i:])
}
