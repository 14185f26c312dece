package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"rex"
	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/match"
	"rex/internal/measure"
	"rex/internal/obs"
	"rex/internal/pattern"
	"rex/internal/rank"
)

// engine_cold: the library with nothing in front of it. Every query
// crosses kb → enumerate → pattern → measure/match → rank on a frozen
// graph with no result cache and evaluator memos that start empty;
// serve, cluster and the WAL do nothing. An engine optimisation must
// show here; a cache, JSON or router change must show nothing in
// query_*. The write phase applies deltas to a non-durable store (live
// without a WAL) and the restart is loading the snapshot file.

type coldEnv struct {
	ds    *dataset
	kb    *rex.KB
	store *rex.Store
}

var coldOptions = rex.Options{CacheSize: 0}

func engineCold(r *run) error {
	env, err := setups(r, func(dir string) (*coldEnv, error) {
		ds, err := buildDataset(r.c.Preset, dir)
		if err != nil {
			return nil, err
		}
		sp := r.tr.begin(nil, layerKB, "rex.LoadKB")
		k, err := rex.LoadKB(ds.kbPath)
		sp.end()
		if err != nil {
			return nil, err
		}
		store, err := rex.NewStore(k, coldOptions)
		if err != nil {
			return nil, err
		}
		return &coldEnv{ds: ds, kb: k, store: store}, nil
	}, func(*coldEnv) {})
	if err != nil {
		return err
	}
	ds := env.ds
	r.checkDataset(ds)
	perRound := r.c.Deltas[wlEngineCold]
	deltas := deltaStream(ds.g, r.opt.seed, r.c.Rounds*perRound, r.c.OpsPerDelta)
	rng := rand.New(rand.NewSource(r.opt.seed))
	var explainers []*rex.Explainer
	var passes [][]float64 // latency of pairs[i] in every pass
	for round := 0; round < r.c.Rounds; round++ {
		// Query block: one pass over the population in a fresh shuffled
		// order, on a fresh Explainer built outside the timed region, so
		// every pass starts with empty evaluator memos. One client only: a
		// query already fans its frontier over GOMAXPROCS workers, and a
		// second client on the sandbox's two cores made the same query 13
		// or 20 ms depending on what it overlapped with (p50 spread 34 %
		// between identical runs, 5 % with one client).
		ex, err := rex.NewExplainer(env.kb, coldOptions)
		if err != nil {
			return err
		}
		explainers = append(explainers, ex)
		order := rng.Perm(len(ds.pairs))
		quiesce()
		lat, wall := r.closedLoop("query", [][]int{order}, func(i int) timed {
			p := ds.pairs[i]
			return func(client int, parent *handle) (func() error, error) {
				ctx := context.Background()
				if r.tr != nil {
					ctx = rex.WithTrace(ctx)
				}
				sp := r.tr.begin(parent, layerRex, "Explainer.ExplainBudgeted")
				res, err := ex.ExplainBudgeted(ctx, p.Start, p.End, rex.Budget{})
				sp.end()
				if err != nil {
					return nil, err
				}
				return func() error {
					r.facadeSpans(sp, res.Trace)
					r.chk.check(p, 1, answerOf(res))
					return nil
				}, nil
			}
		})
		byPair := make([]float64, len(order))
		for k, i := range order {
			byPair[i] = lat[0][k]
		}
		passes = append(passes, byPair)
		r.sample("query_qps", float64(len(order))/wall.Seconds(), len(order))

		// Write block: the same delta stream the other workloads apply,
		// into a store with no journal and no cache — live's parse, overlay
		// apply and publish on their own.
		quiesce()
		r.writeBlock(round*perRound, deltas[round*perRound:(round+1)*perRound], func(i int, body string) timed {
			return r.deltaLocal(env.store, body, uint64(i+2))
		})

		// Restart: nothing but the snapshot file survives a library
		// process, so recovery is loading it and answering the first query.
		quiesce()
		if err := r.restart(r.c.Restarts, func() error {
			k, err := rex.LoadKB(ds.kbPath)
			if err != nil {
				return err
			}
			ex, err := rex.NewExplainer(k, coldOptions)
			if err != nil {
				return err
			}
			res, err := ex.Explain(ds.light.Start, ds.light.End)
			if err != nil {
				return err
			}
			if k.Fingerprint() != r.baseFP {
				return fmt.Errorf("reloaded KB has fingerprint %s, generated %s", k.Fingerprint(), r.baseFP)
			}
			r.chk.check(ds.light, 1, answerOf(res))
			return nil
		}); err != nil {
			return err
		}
	}
	cur := env.store.Current()
	r.verifyFinal(len(deltas), cur.Generation, cur.Fingerprint)

	// A pass has one sample per pair, and pair costs lie 30 % or more
	// apart, so a percentile over one pass is whichever pair holds that
	// rank and jumps between neighbours from pass to pass (8.3 to 13.2 ms
	// within one run). A pair's own latency repeats to 3 %: settle every
	// pair over the passes first, then take the percentiles over the pairs.
	typical := make([]float64, len(ds.pairs))
	for i := range typical {
		var own []float64
		for _, pass := range passes {
			own = append(own, pass[i])
		}
		typical[i] = bestQuartile(own, "lower")
	}
	sort.Float64s(typical)
	r.set("query_p50_ms", percentile(typical, 50), len(passes)*len(typical))
	r.set("query_p95_ms", percentile(typical, 95), len(passes)*len(typical))

	if r.tr != nil {
		r.queryLedger()
		var evictions uint64
		for _, ex := range explainers {
			evictions += ex.CacheStats().Evictions
		}
		r.set("rex.cache_evictions", float64(evictions), len(explainers))
		if err := r.layerWalk(ds); err != nil {
			return err
		}
		r.engineUnits(ds)
	}
	return nil
}

// checkDataset pins the generated KB to the committed fingerprint.
func (r *run) checkDataset(ds *dataset) {
	r.baseFP = ds.g.Fingerprint()
	e := r.expected
	if e == nil || !e.pins(r.c.Preset) {
		return
	}
	var err error
	if e.Fingerprint != r.baseFP {
		err = fmt.Errorf("generated KB has fingerprint %s, committed %s", r.baseFP, e.Fingerprint)
		r.chk.fail("%v", err)
	}
	r.op(err)
}

// layerWalk calls the engine's layers directly, one pair at a time on
// one goroutine, inside spans the benchmark opens: what Explainer does
// behind the facade, with the allocation and work counts a span around
// the facade cannot see. One pass, evaluator memos empty at its start.
func (r *run) layerWalk(ds *dataset) error {
	sp := r.tr.begin(nil, layerKB, "kb.LoadBinary")
	g, err := kb.LoadBinary(ds.kbPath)
	r.set("kb.load_ms", ms(sp.end()), 1)
	if err != nil {
		return err
	}
	if st, err := os.Stat(ds.kbPath); err == nil {
		r.set("kb.snapshot_bytes", float64(st.Size()), 1)
	}
	m, err := rex.MeasureByName("size+local-dist")
	if err != nil {
		return err
	}
	cfg := enumerate.Config{PathAlg: enumerate.PathPrioritized, UnionAlg: enumerate.UnionPrune, Pool: enumerate.NewPool()}
	ev := measure.NewEvaluator(g)
	var allocs, explanations, scored, kept float64
	var mem runtime.MemStats
	for _, p := range ds.pairs {
		s, t := g.NodeByName(p.Start), g.NodeByName(p.End)
		root := r.tr.begin(nil, layerBench, "walk")
		tr := obs.NewTrace()
		ctx := obs.NewContext(context.Background(), tr)

		runtime.ReadMemStats(&mem)
		before := mem.Mallocs
		esp := r.tr.begin(root, layerEnumerate, "enumerate.ExplanationsBudgeted")
		es, _, err := enumerate.ExplanationsBudgeted(ctx, g, s, t, cfg)
		esp.end()
		runtime.ReadMemStats(&mem)
		allocs += float64(mem.Mallocs - before)
		if err != nil {
			return err
		}
		r.tr.reported(esp, layerPattern, "stage merge", time.Duration(tr.StageNs(obs.StageMerge)))
		explanations += float64(len(es))

		mctx := &measure.Context{G: g, Start: s, End: t, Ctx: ctx, Eval: ev}
		rsp := r.tr.begin(root, layerRank, "rank.TopKDistributionalBudgeted")
		top, _, err := rank.TopKDistributionalBudgeted(ctx, mctx, es, m.(measure.Limited), 10, time.Time{})
		rsp.end()
		if err != nil {
			return err
		}
		msp := r.tr.reported(rsp, layerMeasure, "stage measure", time.Duration(tr.StageNs(obs.StageMeasure)))
		r.tr.reported(msp, layerMatch, "stage match", time.Duration(tr.StageNs(obs.StageMatch)))
		root.end()
		rep := tr.Report()
		for _, st := range rep.Stages {
			if st.Stage == "measure" {
				scored += float64(st.Calls)
			}
		}
		kept += float64(len(top))
	}
	n := len(ds.pairs)
	q := float64(n)
	r.set("enumerate.allocs", allocs/q, n)
	r.set("enumerate.explanations", explanations/q, n)
	r.set("rank.scored_per_query", scored/q, n)
	r.set("rank.pruned_share", 1-share(kept, scored), int(scored))
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// engineUnits times single calls into kb, pattern and match: the unit
// costs under the engine's self times.
func (r *run) engineUnits(ds *dataset) {
	g := ds.g
	g.Freeze()
	// kb.NeighborsLabeled on the frozen CSR, over the population's
	// endpoints and every label.
	var nodes []kb.NodeID
	for _, p := range ds.pairs {
		nodes = append(nodes, g.NodeByName(p.Start), g.NodeByName(p.End))
	}
	r.set("kb.neighbors_ns", neighborsNS(g, nodes), len(nodes))

	// One enumerated explanation set supplies real patterns.
	heavy := ds.pairs[len(ds.pairs)-1]
	s, t := g.NodeByName(heavy.Start), g.NodeByName(heavy.End)
	cfg := enumerate.Config{PathAlg: enumerate.PathPrioritized, UnionAlg: enumerate.UnionPrune}
	es, _, err := enumerate.ExplanationsBudgeted(context.Background(), g, s, t, cfg)
	if err != nil || len(es) < 2 {
		r.notef("engine unit costs skipped: %d explanations, err %v", len(es), err)
		return
	}
	const rounds = 200
	keyLoop := func() {
		for i := 0; i < rounds; i++ {
			for _, e := range es {
				sink += uint64(e.P.Key())
			}
		}
	}
	calls := rounds * len(es)
	ns, allocs := unitCost(calls, keyLoop)
	r.set("pattern.key_ns", ns, calls)
	r.set("pattern.key_allocs", allocs, calls)
	// The same loop on nproc goroutines at once: Pattern.Key takes a
	// process-global RWMutex read lock, which only shows under parallel
	// callers.
	par := runtime.NumCPU()
	t0 := time.Now()
	done := make(chan struct{})
	for i := 0; i < par; i++ {
		go func() { keyLoop(); done <- struct{}{} }()
	}
	for i := 0; i < par; i++ {
		<-done
	}
	r.set("pattern.key_par_ns", float64(time.Since(t0).Nanoseconds())/float64(calls), calls*par)

	paths := es[:0:0]
	for _, e := range es {
		if e.P.IsPath() {
			paths = append(paths, e)
		}
	}
	if len(paths) >= 2 {
		merges := 0
		ns, _ := unitCost(1, func() {
			for i := 0; i < len(paths) && i < 40; i++ {
				for j := i + 1; j < len(paths) && j < 40; j++ {
					sink += uint64(len(pattern.Merge(paths[i], paths[j], 5)))
					merges++
				}
			}
		})
		r.set("pattern.merge_ns", ns/float64(max(1, merges)), merges)
	}
	counts := 0
	ns, allocs = unitCost(1, func() {
		for _, e := range es {
			if counts >= 200 {
				break
			}
			n, _ := match.CountContext(context.Background(), g, e.P, s, t)
			sink += uint64(n)
			counts++
		}
	})
	r.set("match.count_ns", ns/float64(max(1, counts)), counts)
	r.set("match.count_allocs", allocs/float64(max(1, counts)), counts)
}

var sink uint64

// unitCost runs f once on a quiet goroutine and returns ns and heap
// allocations per call, f making calls calls.
func unitCost(calls int, f func()) (ns, allocs float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m)
	return float64(d.Nanoseconds()) / float64(calls), float64(m.Mallocs-before) / float64(calls)
}

func neighborsNS(g *kb.Graph, nodes []kb.NodeID) float64 {
	labels := g.Labels()
	const rounds = 50
	calls := rounds * len(nodes) * len(labels)
	ns, _ := unitCost(calls, func() {
		for i := 0; i < rounds; i++ {
			for _, n := range nodes {
				for _, l := range labels {
					sink += uint64(len(g.NeighborsLabeled(n, l)))
				}
			}
		}
	})
	return ns
}
