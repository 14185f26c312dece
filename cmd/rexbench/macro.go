package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"rex"
	"rex/internal/kbgen"
)

// The macro experiment gives the perf trajectory a traffic-shaped
// number: instead of ns/op on the fixed sample KB, it generates a
// preset-sized synthetic KB (the million preset is ~1.2M relationships,
// the paper's scale), proves the CSR binary snapshot round-trips it at
// speed, and reports end-to-end Explain latency percentiles over
// connectedness-bucketed pairs plus sustained BatchExplain throughput.
// With a budget configured it additionally measures the anytime path
// (budgeted percentiles and truncation counts), and with a worker list
// it runs the contended mode: sustained BatchExplain at each worker
// count, so the numbers measure cross-query scaling — the lock-shard
// story.
// Everything is deterministic in the seed except wall-clock timings.

// macroOptions parameterises the macro run.
type macroOptions struct {
	Preset           string
	Seed             int64
	PerBucket        int     // pairs sampled per connectedness bucket
	Rounds           int     // latency measurements per pair
	QPSSeconds       float64 // target duration of each throughput phase (0: one round)
	BudgetMS         int64   // anytime budget, wall-clock milliseconds (0: skip budgeted phases)
	BudgetExpansions int     // anytime budget, enumeration expansions (0: none)
	Workers          []int   // contended-mode BatchExplain worker counts (empty: skip)
	CPUs             []int   // GOMAXPROCS settings for the contended mode (empty: current)
}

// macroReport is the "macro" section of BENCH.json.
type macroReport struct {
	Preset         string  `json:"preset"`
	Seed           int64   `json:"seed"`
	Nodes          int     `json:"nodes"`
	Edges          int     `json:"edges"`
	GenerateMs     float64 `json:"generate_ms"`
	SnapshotBytes  int64   `json:"snapshot_bytes"`
	SnapshotSaveMs float64 `json:"snapshot_save_ms"`
	SnapshotLoadMs float64 `json:"snapshot_load_ms"`
	Pairs          int     `json:"pairs"`
	LatencySamples int     `json:"latency_samples"`
	ExplainP50Ms   float64 `json:"explain_p50_ms"`
	ExplainP99Ms   float64 `json:"explain_p99_ms"`
	ExplainMaxMs   float64 `json:"explain_max_ms"`

	// Budgeted latency phase (present when a budget was configured):
	// the same samples re-measured under the anytime budget, plus how
	// many of them actually truncated.
	BudgetMS           int64   `json:"budget_ms,omitempty"`
	BudgetExpansions   int     `json:"budget_expansions,omitempty"`
	BudgetedP50Ms      float64 `json:"explain_budgeted_p50_ms,omitempty"`
	BudgetedP99Ms      float64 `json:"explain_budgeted_p99_ms,omitempty"`
	BudgetedMaxMs      float64 `json:"explain_budgeted_max_ms,omitempty"`
	BudgetedTruncated  int     `json:"budgeted_truncated,omitempty"`
	BudgetedSamples    int     `json:"budgeted_samples,omitempty"`
	BudgetedP99CutFrom float64 `json:"budgeted_p99_cut_factor,omitempty"` // unbudgeted p99 / budgeted p99

	BatchQueries int     `json:"batch_queries"`
	BatchSeconds float64 `json:"batch_seconds"`
	BatchQPS     float64 `json:"batch_qps"`

	// Contended holds the contended-mode points: sustained BatchExplain
	// at each (GOMAXPROCS, workers, budget) combination.
	Contended []contendedPoint `json:"contended,omitempty"`
}

// contendedPoint is one contended-mode measurement.
type contendedPoint struct {
	CPU       int     `json:"cpu"`     // GOMAXPROCS during the run
	Workers   int     `json:"workers"` // BatchExplain concurrency
	BudgetMS  int64   `json:"budget_ms,omitempty"`
	Queries   int     `json:"queries"`
	Seconds   float64 `json:"seconds"`
	QPS       float64 `json:"qps"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	Truncated int     `json:"truncated,omitempty"`
}

// runMacro executes the macro experiment into report.Macro.
func runMacro(report *benchReport, stdout io.Writer, opt macroOptions) error {
	genOpt, err := kbgen.PresetOptions(opt.Preset, opt.Seed)
	if err != nil {
		return err
	}
	if opt.PerBucket <= 0 {
		opt.PerBucket = 5
	}
	if opt.Rounds <= 0 {
		opt.Rounds = 4
	}
	m := &macroReport{Preset: opt.Preset, Seed: opt.Seed}

	t0 := time.Now()
	g := kbgen.Generate(genOpt)
	m.GenerateMs = msSince(t0)
	st := g.Stats()
	m.Nodes, m.Edges = st.Nodes, st.Edges
	fmt.Fprintf(stdout, "macro: %s KB: %d entities, %d relationships (generated in %.0fms)\n",
		opt.Preset, st.Nodes, st.Edges, m.GenerateMs)

	// Snapshot round-trip: save the CSR binary format and load it back,
	// verifying content identity by fingerprint. The loaded graph serves
	// the query phases, so the measured traffic runs on exactly what a
	// production deployment would load from disk.
	dir, err := os.MkdirTemp("", "rexbench-macro-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "kb.bin")
	t0 = time.Now()
	if err := g.SaveBinary(snap); err != nil {
		return err
	}
	m.SnapshotSaveMs = msSince(t0)
	if fi, err := os.Stat(snap); err == nil {
		m.SnapshotBytes = fi.Size()
	}
	t0 = time.Now()
	kbv, err := rex.LoadKB(snap)
	if err != nil {
		return err
	}
	m.SnapshotLoadMs = msSince(t0)
	if got, want := kbv.Fingerprint(), g.Fingerprint(); got != want {
		return fmt.Errorf("macro: snapshot fingerprint %s != generated %s", got, want)
	}
	fmt.Fprintf(stdout, "macro: snapshot %0.1f MiB, save %.0fms, load %.0fms, fingerprint ok\n",
		float64(m.SnapshotBytes)/(1<<20), m.SnapshotSaveMs, m.SnapshotLoadMs)

	// Pair sampling: the generator may surface the same pair in several
	// buckets' draws, which would double-weight it in every percentile,
	// so duplicates are dropped before measuring.
	pairs := kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: opt.PerBucket, Seed: opt.Seed + 1})
	if len(pairs) == 0 {
		return fmt.Errorf("macro: no pairs sampled")
	}
	seen := make(map[rex.Pair]bool, len(pairs))
	named := make([]rex.Pair, 0, len(pairs))
	for _, p := range pairs {
		np := rex.Pair{Start: g.NodeName(p.Start), End: g.NodeName(p.End)}
		if seen[np] {
			continue
		}
		seen[np] = true
		named = append(named, np)
	}
	m.Pairs = len(named)

	ex, err := rex.NewExplainer(kbv, rex.Options{TopK: 10})
	if err != nil {
		return err
	}

	// Latency phase: every pair measured Rounds times, uncached (the
	// explainer has no result cache; evaluator memos warm up exactly as
	// they would under production traffic on one snapshot).
	var lat []float64
	for r := 0; r < opt.Rounds; r++ {
		for _, p := range named {
			t0 = time.Now()
			if _, err := ex.Explain(p.Start, p.End); err != nil {
				return fmt.Errorf("macro: explain %s/%s: %w", p.Start, p.End, err)
			}
			lat = append(lat, msSince(t0))
		}
	}
	slices.Sort(lat)
	m.LatencySamples = len(lat)
	m.ExplainP50Ms = percentile(lat, 50)
	m.ExplainP99Ms = percentile(lat, 99)
	m.ExplainMaxMs = lat[len(lat)-1]
	fmt.Fprintf(stdout, "macro: explain latency over %d samples: p50 %.1fms, p99 %.1fms, max %.1fms\n",
		m.LatencySamples, m.ExplainP50Ms, m.ExplainP99Ms, m.ExplainMaxMs)

	budget := rex.Budget{Timeout: time.Duration(opt.BudgetMS) * time.Millisecond, MaxExpansions: opt.BudgetExpansions}
	if budget != (rex.Budget{}) {
		// Budgeted latency phase: the identical workload under the
		// anytime budget — the tail-taming claim is the ratio of the two
		// p99 figures.
		m.BudgetMS, m.BudgetExpansions = opt.BudgetMS, opt.BudgetExpansions
		var blat []float64
		truncated := 0
		for r := 0; r < opt.Rounds; r++ {
			for _, p := range named {
				t0 = time.Now()
				res, err := ex.ExplainBudgeted(context.Background(), p.Start, p.End, budget)
				if err != nil {
					return fmt.Errorf("macro: budgeted explain %s/%s: %w", p.Start, p.End, err)
				}
				blat = append(blat, msSince(t0))
				if res.Truncated {
					truncated++
				}
			}
		}
		slices.Sort(blat)
		m.BudgetedSamples = len(blat)
		m.BudgetedTruncated = truncated
		m.BudgetedP50Ms = percentile(blat, 50)
		m.BudgetedP99Ms = percentile(blat, 99)
		m.BudgetedMaxMs = blat[len(blat)-1]
		if m.BudgetedP99Ms > 0 {
			m.BudgetedP99CutFrom = m.ExplainP99Ms / m.BudgetedP99Ms
		}
		fmt.Fprintf(stdout, "macro: budgeted explain latency (budget %dms/%d expansions): p50 %.1fms, p99 %.1fms, max %.1fms; %d/%d truncated; p99 cut %.1fx\n",
			opt.BudgetMS, opt.BudgetExpansions, m.BudgetedP50Ms, m.BudgetedP99Ms, m.BudgetedMaxMs,
			truncated, len(blat), m.BudgetedP99CutFrom)
	}

	// Throughput phase: sustained BatchExplain rounds until the target
	// duration elapses (at least one round), all workers busy.
	workers := runtime.GOMAXPROCS(0)
	t0 = time.Now()
	queries := 0
	for {
		res := ex.BatchExplain(context.Background(), named, rex.BatchOptions{Concurrency: workers})
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("macro: batch %s/%s: %w", r.Pair.Start, r.Pair.End, r.Err)
			}
		}
		queries += len(res)
		if time.Since(t0).Seconds() >= opt.QPSSeconds {
			break
		}
	}
	m.BatchSeconds = time.Since(t0).Seconds()
	m.BatchQueries = queries
	m.BatchQPS = float64(queries) / m.BatchSeconds
	fmt.Fprintf(stdout, "macro: sustained BatchExplain: %d queries in %.1fs = %.1f QPS (%d workers)\n",
		m.BatchQueries, m.BatchSeconds, m.BatchQPS, workers)

	// Contended mode: worker-scaling points. A 1-worker run is the
	// serial baseline; added workers measure cross-query concurrency —
	// the evaluator/cache lock shards.
	if len(opt.Workers) > 0 {
		exc, err := rex.NewExplainer(kbv, rex.Options{TopK: 10})
		if err != nil {
			return err
		}
		cpus := opt.CPUs
		if len(cpus) == 0 {
			cpus = []int{runtime.GOMAXPROCS(0)}
		}
		prev := runtime.GOMAXPROCS(0)
		for _, cpu := range cpus {
			runtime.GOMAXPROCS(cpu)
			for _, w := range opt.Workers {
				pt, err := contendedRun(exc, named, cpu, w, rex.Budget{}, opt.QPSSeconds)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					return err
				}
				m.Contended = append(m.Contended, pt)
				fmt.Fprintf(stdout, "macro: contended cpu=%d workers=%d: %.1f QPS, p50 %.1fms, p99 %.1fms\n",
					cpu, w, pt.QPS, pt.P50Ms, pt.P99Ms)
				if budget != (rex.Budget{}) {
					pt, err := contendedRun(exc, named, cpu, w, budget, opt.QPSSeconds)
					if err != nil {
						runtime.GOMAXPROCS(prev)
						return err
					}
					pt.BudgetMS = opt.BudgetMS
					m.Contended = append(m.Contended, pt)
					fmt.Fprintf(stdout, "macro: contended cpu=%d workers=%d budget=%dms: %.1f QPS, p50 %.1fms, p99 %.1fms, %d truncated\n",
						cpu, w, opt.BudgetMS, pt.QPS, pt.P50Ms, pt.P99Ms, pt.Truncated)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	report.Macro = m
	return nil
}

// contendedRun drives sustained BatchExplain rounds at one concurrency
// until the target duration elapses, deriving QPS and per-query latency
// percentiles from the per-pair timings. One untimed warmup round runs
// first so the measurement reflects the steady state (evaluator memos
// warm, pools populated) rather than first-touch costs.
func contendedRun(ex *rex.Explainer, pairs []rex.Pair, cpu, workers int, budget rex.Budget, seconds float64) (contendedPoint, error) {
	pt := contendedPoint{CPU: cpu, Workers: workers}
	for _, r := range ex.BatchExplain(context.Background(), pairs, rex.BatchOptions{Concurrency: workers, Budget: budget}) {
		if r.Err != nil {
			return pt, fmt.Errorf("macro: contended warmup %s/%s: %w", r.Pair.Start, r.Pair.End, r.Err)
		}
	}
	var lat []float64
	t0 := time.Now()
	for {
		res := ex.BatchExplain(context.Background(), pairs, rex.BatchOptions{Concurrency: workers, Budget: budget})
		for _, r := range res {
			if r.Err != nil {
				return pt, fmt.Errorf("macro: contended batch %s/%s: %w", r.Pair.Start, r.Pair.End, r.Err)
			}
			lat = append(lat, float64(r.Elapsed.Nanoseconds())/1e6)
			if r.Result.Truncated {
				pt.Truncated++
			}
		}
		pt.Queries += len(res)
		if time.Since(t0).Seconds() >= seconds {
			break
		}
	}
	pt.Seconds = time.Since(t0).Seconds()
	pt.QPS = float64(pt.Queries) / pt.Seconds
	slices.Sort(lat)
	pt.P50Ms = percentile(lat, 50)
	pt.P99Ms = percentile(lat, 99)
	return pt, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// percentile returns the p-th percentile of sorted samples by linear
// interpolation between closest ranks (the "exclusive" definition used
// by most monitoring systems). The old nearest-rank formula made p99
// collapse onto max for small sample sets; interpolation keeps the
// estimate meaningful at every sample count.
func percentile(sorted []float64, p float64) float64 {
	switch len(sorted) {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
