package main

import "math"

// This file is the naming contract: the workloads, the end-to-end
// metrics with their regression bounds, the per-layer metrics, and the
// frozen counts. BENCHMARK.json repeats the names (bench_test.go holds
// the two together); README.md says what each one means and what it
// should move.

const (
	wlEngineCold  = "engine_cold"
	wlServeHot    = "serve_hot"
	wlIngestMixed = "ingest_mixed"
	wlTierRouted  = "tier_routed"
)

var workloadNames = []string{wlEngineCold, wlServeHot, wlIngestMixed, wlTierRouted}

// Layers are this repository's modules; layerBench holds the time of a
// traced operation that no layer span covers.
const (
	layerBench     = "bench"
	layerKB        = "kb"
	layerPattern   = "pattern"
	layerMatch     = "match"
	layerEnumerate = "enumerate"
	layerMeasure   = "measure"
	layerRank      = "rank"
	layerRex       = "rex"
	layerLive      = "live"
	layerServe     = "serve"
	layerCluster   = "cluster"
	layerSync      = "sync"
)

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is measured with tracing off. Every workload reports every
// one of these (the driver's contract), so each workload has a query
// phase, a write phase and a restart in its own deployment shape.
//
// The time bounds are the contract's maximum. The sandbox's CPU speed
// moves between two regimes 1.6× apart that last 5 to 40 s each (a busy
// SMT neighbour), so a bound below the run-to-run spread would only
// produce unresolved verdicts; -repeat prints the spread actually seen.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"delta_p50_ms", "ms", "lower", 0.25},
	{"delta_p99_ms", "ms", "lower", 0.25},
	{"delta_per_s", "1/s", "higher", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// reportOnly is measured with tracing off and printed by the full run,
// but is outside BENCHMARK.json: catchup_s exists on one workload only,
// and the other two are zero on a healthy run (the contract wants
// metrics that are never 0; they surface as correct/failed instead).
var reportOnly = []metricSpec{
	{"catchup_s", "s", "lower", 0.25},
	{"failed_share", "ratio", "lower", 0},
	{"wrong_answers", "count", "lower", 0},
}

// perLayer comes from the traced run only. A workload that does not
// exercise a layer reports its metrics as 0.
var perLayer = []metricSpec{
	{"kb.load_ms", "ms", "lower", 0},
	{"kb.snapshot_bytes", "B", "lower", 0},
	{"kb.neighbors_ns", "ns", "lower", 0},
	{"kb.neighbors_overlay_ns", "ns", "lower", 0},
	{"kb.compact_ms", "ms", "lower", 0},
	{"kb.compactions", "count", "lower", 0},
	{"pattern.key_ns", "ns", "lower", 0},
	{"pattern.key_allocs", "count", "lower", 0},
	{"pattern.key_par_ns", "ns", "lower", 0},
	{"pattern.merge_ns", "ns", "lower", 0},
	{"pattern.self_ms", "ms", "lower", 0},
	{"match.count_ns", "ns", "lower", 0},
	{"match.count_allocs", "count", "lower", 0},
	{"match.calls_per_query", "count", "lower", 0},
	{"match.self_ms", "ms", "lower", 0},
	{"enumerate.self_ms", "ms", "lower", 0},
	{"enumerate.expansions", "count", "lower", 0},
	{"enumerate.explanations", "count", "higher", 0},
	{"enumerate.allocs", "count", "lower", 0},
	{"measure.self_ms", "ms", "lower", 0},
	{"measure.memo_hit_share", "ratio", "higher", 0},
	{"measure.walk_cache_hit_share", "ratio", "higher", 0},
	{"rank.self_ms", "ms", "lower", 0},
	{"rank.scored_per_query", "count", "lower", 0},
	{"rank.pruned_share", "ratio", "higher", 0},
	{"rex.explain_self_ms", "ms", "lower", 0},
	{"rex.cache_hit_ns", "ns", "lower", 0},
	{"rex.cache_hit_allocs", "count", "lower", 0},
	{"rex.cache_hit_share", "ratio", "higher", 0},
	{"rex.cache_evictions", "count", "lower", 0},
	{"rex.dedup_share", "ratio", "higher", 0},
	{"live.parse_ms", "ms", "lower", 0},
	{"live.apply_ms", "ms", "lower", 0},
	{"live.wal_append_ms", "ms", "lower", 0},
	{"live.fsyncs", "count", "lower", 0},
	{"live.wal_bytes_per_delta_byte", "ratio", "lower", 0},
	{"live.checkpoints", "count", "lower", 0},
	{"live.checkpoint_ms", "ms", "lower", 0},
	{"live.publish_ms", "ms", "lower", 0},
	{"live.carried_share", "ratio", "higher", 0},
	{"live.post_swap_hit_share", "ratio", "higher", 0},
	{"live.overlay_depth_max", "count", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.response_bytes", "B", "lower", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"serve.delta_overhead_ms", "ms", "lower", 0},
	{"cluster.hop_ms", "ms", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.hedges_fired", "count", "lower", 0},
	{"cluster.gen_rejects", "count", "lower", 0},
	{"cluster.broadcast_overhead_ms", "ms", "lower", 0},
	{"sync.tail_ms", "ms", "lower", 0},
	{"sync.wal_records", "count", "lower", 0},
	{"sync.wal_bytes", "B", "lower", 0},
	{"sync.snapshot_ms", "ms", "lower", 0},
	{"sync.snapshot_bytes", "B", "lower", 0},
	{"sync.mismatches", "count", "lower", 0},
	{"obs.trace_overhead_share", "ratio", "lower", 0},
	{"bench.unattributed_share", "ratio", "lower", 0},
	{"bench.engine_share", "ratio", "higher", 0},
}

func specOf(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, reportOnly, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// runSeconds is the measuring time the frozen counts are sized for on
// the 2-core sandbox: frozen.Rounds rounds of about 2.7 s each.
const runSeconds = 16

// counts is the fixed work of a run. A run is Rounds rounds; a round is
// one block of queries, one block of deltas and one restart, so every
// metric is sampled across the whole run and not in one stretch of it.
// -seconds changes the number of rounds and nothing inside a round.
type counts struct {
	Preset    string `json:"preset"`
	Rounds    int    `json:"rounds"`
	SetupReps int    `json:"setup_reps"` // set-ups per run
	// Per round:
	HotRequests   int            `json:"hot_requests"`   // serve_hot: GET /explain, all clients together
	RouteRequests int            `json:"route_requests"` // tier_routed: GET /explain through the router
	Deltas        map[string]int `json:"deltas"`         // deltas applied, by workload
	OpsPerDelta   int            `json:"ops_per_delta"`
	// Restarts is how often a round repeats its restart where a restart
	// leaves nothing behind (engine_cold, serve_hot).
	Restarts int `json:"restarts"`
	// TierCheckpointEvery is the checkpoint interval of tier_routed's
	// replicas; it broadcasts a whole number of intervals per round. The
	// tier starts with 3/4 of an interval of history, so at the end of
	// every round the newest checkpoint is 3/4 of an interval old and a
	// store half an interval behind is still above the checkpoint horizon.
	TierCheckpointEvery int `json:"tier_checkpoint_every"`
}

// frozen is sized so that a round takes about 2.7 s on two cores. The
// deltas per round put delta_p99_ms inside one population of slow
// applies instead of on the edge between two: of 400 applies without a
// journal the 5th slowest is one of 12 compactions (every 32nd apply); of ingest_mixed's 672 (10½ checkpoint intervals of 64, so
// every restart replays a WAL tail of 32 records) the 7th slowest is one
// of 10 checkpoints; of tier_routed's 256 the 3rd slowest is one of 4.
var frozen = counts{
	Preset:              "medium",
	Rounds:              6,
	SetupReps:           3,
	HotRequests:         10000,
	RouteRequests:       4000,
	OpsPerDelta:         100,
	Restarts:            3,
	TierCheckpointEvery: 64,
	Deltas: map[string]int{
		wlEngineCold:  400,
		wlServeHot:    400,
		wlIngestMixed: 672,
		wlTierRouted:  256,
	},
}

// forRun returns the counts for a run of the given length; a traced run
// makes a quarter of the rounds and sets up once.
func (c counts) forRun(seconds float64, traced bool) counts {
	f := seconds / runSeconds
	if traced {
		f /= 4
		c.SetupReps = 1
	}
	c.Rounds = max(1, int(math.Round(float64(c.Rounds)*f)))
	return c
}

func (c counts) tierHistory() int { return c.TierCheckpointEvery * 3 / 4 }
func (c counts) tierLag() int     { return c.TierCheckpointEvery / 2 }
